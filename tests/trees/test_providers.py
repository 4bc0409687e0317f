"""Equivalence and cost tests for the MTTKRP engines (naive, DT, MSDT)."""

import numpy as np
import pytest

from repro.core.cp_als import cp_als
from repro.core.options import ALSOptions
from repro.core.pp_corrections import fused_approx_update
from repro.core.updates import make_update_rule
from repro.machine.cost_tracker import CostTracker
from repro.sparse import CooTensor
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import available_providers, make_provider


def _simulate_als_updates(provider, n_sweeps: int, seed: int = 0):
    """Drive a provider through ALS-like factor updates, returning all MTTKRPs.

    The "update" replaces each factor with a deterministic transformation of
    the MTTKRP result so every engine sees exactly the same factor sequence
    (provided its MTTKRPs are correct), which makes trajectories comparable.
    """
    outputs = []
    for sweep in range(n_sweeps):
        for mode in range(provider.order):
            result = provider.mttkrp(mode)
            outputs.append(result.copy())
            update = result / (np.linalg.norm(result) + 1.0) + 0.01 * (sweep + 1)
            provider.set_factor(mode, update)
    return outputs


class TestRegistry:
    def test_available_providers(self):
        assert set(available_providers()) == {"naive", "unfolding", "dt", "msdt"}

    @pytest.mark.parametrize("name", ["naive", "unfolding", "dt", "msdt"])
    def test_make_provider_accepts_canonical_names(self, small_tensor3, factors3, name):
        provider = make_provider(name, small_tensor3, factors3)
        assert provider.order == 3
        assert provider.rank == 4

    def test_unknown_name_raises(self, small_tensor3, factors3):
        with pytest.raises(ValueError):
            make_provider("magic", small_tensor3, factors3)

    def test_wrong_factor_count_raises(self, small_tensor3, factors3):
        with pytest.raises(ValueError):
            make_provider("dt", small_tensor3, factors3[:2])

    def test_set_factor_validates_shape(self, small_tensor3, factors3, rng):
        provider = make_provider("dt", small_tensor3, factors3)
        with pytest.raises(ValueError):
            provider.set_factor(0, rng.random((3, 3)))

    def test_mttkrp_mode_out_of_range_raises(self, small_tensor3, factors3):
        for name in ("dt", "msdt"):
            provider = make_provider(name, small_tensor3, factors3)
            with pytest.raises(ValueError):
                provider.mttkrp(5)


class TestOneSparseKernelPath:
    """The sparse engines have one implementation each: no compiled-kernel
    engine name, option or keyword is accepted."""

    @pytest.fixture()
    def coo_and_factors(self, rng):
        dense = rng.random((5, 4, 3)) * (rng.random((5, 4, 3)) < 0.5)
        coo = CooTensor.from_dense(dense)
        return coo, [rng.random((s, 2)) for s in coo.shape]

    def test_compiled_engine_name_is_unknown(self, coo_and_factors):
        coo, factors = coo_and_factors
        assert available_providers() == ["naive", "unfolding", "dt", "msdt"]
        with pytest.raises(ValueError) as raised:
            make_provider("dt_compiled", coo, factors)
        assert str(available_providers()) in str(raised.value)

    def test_kernel_option_is_unknown(self, coo_and_factors):
        coo, _ = coo_and_factors
        with pytest.raises(TypeError):
            ALSOptions(rank=2, kernel="numba")
        with pytest.raises(TypeError):
            cp_als(coo, ALSOptions(rank=2), kernel="numba")

    def test_fused_approx_update_accepts_only_kernel_none(self, coo_and_factors, rng):
        coo, factors = coo_and_factors
        operators = PairwiseOperators.build(coo, factors)
        deltas = [0.01 * rng.random(f.shape) for f in factors]
        grams = [f.T @ f for f in factors]
        delta_grams = [f.T @ d for f, d in zip(factors, deltas)]
        gamma = grams[1] * grams[2]

        def update(**kwargs):
            return fused_approx_update(operators, 0, factors[0], deltas, grams,
                                       delta_grams, gamma,
                                       make_update_rule("least_squares"), **kwargs)

        with pytest.raises(TypeError, match="kernel"):
            update(kernel=object())
        for got, want in zip(update(kernel=None), update()):
            assert np.array_equal(got, want)


class TestEquivalence:
    @pytest.mark.parametrize("engine", ["unfolding", "dt", "msdt"])
    def test_static_factors_match_naive_order3(self, small_tensor3, factors3, engine):
        reference = make_provider("naive", small_tensor3, factors3)
        candidate = make_provider(engine, small_tensor3, factors3)
        for mode in range(3):
            assert np.allclose(candidate.mttkrp(mode), reference.mttkrp(mode), atol=1e-10)

    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    def test_static_factors_match_naive_order4(self, small_tensor4, factors4, engine):
        reference = make_provider("naive", small_tensor4, factors4)
        candidate = make_provider(engine, small_tensor4, factors4)
        for mode in range(4):
            assert np.allclose(candidate.mttkrp(mode), reference.mttkrp(mode), atol=1e-10)

    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_als_trajectory_matches_naive(self, engine, order, rng):
        shape = tuple(rng.integers(4, 7) for _ in range(order))
        tensor = rng.random(shape)
        factors = [rng.random((s, 3)) for s in shape]
        reference = make_provider("naive", tensor, [f.copy() for f in factors])
        candidate = make_provider(engine, tensor, [f.copy() for f in factors])
        ref_outputs = _simulate_als_updates(reference, n_sweeps=3)
        cand_outputs = _simulate_als_updates(candidate, n_sweeps=3)
        for ref, cand in zip(ref_outputs, cand_outputs):
            assert np.allclose(ref, cand, atol=1e-9)

    def test_repeated_calls_without_updates_are_consistent(self, small_tensor3, factors3):
        provider = make_provider("msdt", small_tensor3, factors3)
        first = provider.mttkrp(1)
        second = provider.mttkrp(1)
        assert np.allclose(first, second)

    def test_cache_stats_exposed(self, small_tensor3, factors3):
        provider = make_provider("dt", small_tensor3, factors3)
        _simulate_als_updates(provider, n_sweeps=2)
        stats = provider.cache_stats()
        assert stats["hits"] > 0
        assert stats["entries"] >= 1

    def test_cache_budget_preserves_correctness(self, small_tensor4, factors4):
        reference = make_provider("naive", small_tensor4, [f.copy() for f in factors4])
        limited = make_provider("msdt", small_tensor4, [f.copy() for f in factors4],
                                max_cache_bytes=2048)
        ref_outputs = _simulate_als_updates(reference, n_sweeps=2)
        lim_outputs = _simulate_als_updates(limited, n_sweeps=2)
        for ref, lim in zip(ref_outputs, lim_outputs):
            assert np.allclose(ref, lim, atol=1e-9)


class TestLeadingOrderCosts:
    """Verify the Table I leading-order sequential flop counts are achieved."""

    @pytest.mark.parametrize("order,shape", [(3, (10, 10, 10)), (4, (6, 6, 6, 6))])
    def test_per_sweep_ttm_flops(self, order, shape, rng):
        rank = 5
        tensor = rng.random(shape)
        tensor_size = tensor.size
        per_ttm = 2 * tensor_size * rank

        measurements = {}
        for engine in ("naive", "dt", "msdt"):
            tracker = CostTracker()
            factors = [rng.random((s, rank)) for s in shape]
            provider = make_provider(engine, tensor, factors, tracker=tracker)
            _simulate_als_updates(provider, n_sweeps=2)     # reach steady state
            snapshot = tracker.snapshot()
            n_sweeps = 4
            _simulate_als_updates(provider, n_sweeps=n_sweeps)
            delta = tracker.diff_since(snapshot)
            measurements[engine] = delta.flops_by_category.get("ttm", 0) / n_sweeps

        # naive recomputes every MTTKRP: N first-level-sized contractions per sweep
        assert measurements["naive"] == pytest.approx(order * per_ttm, rel=1e-6)
        # standard dimension tree: exactly two first-level TTMs per sweep
        assert measurements["dt"] == pytest.approx(2 * per_ttm, rel=1e-6)
        # MSDT: at most N/(N-1) first-level TTMs per sweep in steady state (the
        # versioned cache occasionally reuses second-level intermediates across
        # roots for N >= 4 and then does slightly better than the paper's bound),
        # and at least one TTM per sweep
        assert measurements["msdt"] <= order / (order - 1) * per_ttm * (1 + 1e-6)
        assert measurements["msdt"] >= per_ttm * (1 - 1e-6)
        if order == 3:
            assert measurements["msdt"] == pytest.approx(1.5 * per_ttm, rel=1e-6)

    def test_msdt_cheaper_than_dt_in_total_contraction_flops(self, rng):
        shape = (9, 9, 9)
        rank = 4
        tensor = rng.random(shape)
        totals = {}
        for engine in ("dt", "msdt"):
            tracker = CostTracker()
            factors = [rng.random((s, rank)) for s in shape]
            provider = make_provider(engine, tensor, factors, tracker=tracker)
            _simulate_als_updates(provider, n_sweeps=6)
            flops = tracker.flops_by_category
            totals[engine] = flops.get("ttm", 0) + flops.get("mttv", 0)
        assert totals["msdt"] < totals["dt"]

    def test_mttv_flops_are_lower_order(self, rng):
        shape = (12, 12, 12)
        tensor = rng.random(shape)
        tracker = CostTracker()
        factors = [rng.random((12, 4)) for _ in range(3)]
        provider = make_provider("dt", tensor, factors, tracker=tracker)
        _simulate_als_updates(provider, n_sweeps=3)
        flops = tracker.flops_by_category
        assert flops["mttv"] < flops["ttm"]
