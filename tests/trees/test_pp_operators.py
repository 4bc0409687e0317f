"""Tests for the pairwise-perturbation operator builder."""

import numpy as np
import pytest

from repro.core.normal_equations import gram_matrix
from repro.core.updates import sweep
from repro.machine.cost_tracker import CostTracker
from repro.sparse import CooTensor
from repro.tensor.mttkrp import mttkrp, partial_mttkrp
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider


class TestBuild:
    @pytest.mark.parametrize("order", [3, 4])
    def test_pair_operators_match_partial_mttkrp(self, order, rng):
        shape = tuple(rng.integers(4, 7) for _ in range(order))
        tensor = rng.random(shape)
        factors = [rng.random((s, 3)) for s in shape]
        operators = PairwiseOperators.build(tensor, factors)
        for i in range(order):
            for j in range(i + 1, order):
                expected = partial_mttkrp(tensor, factors, [i, j])
                assert np.allclose(operators.pairs()[i, j], expected, atol=1e-10)

    @pytest.mark.parametrize("order", [3, 4])
    def test_single_operators_match_mttkrp(self, order, rng):
        shape = tuple(rng.integers(4, 7) for _ in range(order))
        tensor = rng.random(shape)
        factors = [rng.random((s, 3)) for s in shape]
        operators = PairwiseOperators.build(tensor, factors)
        for n in range(order):
            assert np.allclose(operators.single(n), mttkrp(tensor, factors, n), atol=1e-10)

    def test_memory_words_counts_all_operators(self, small_tensor3, factors3):
        operators = PairwiseOperators.build(small_tensor3, factors3)
        expected = (7 * 6 + 7 * 5 + 6 * 5) * 4 + (7 + 6 + 5) * 4
        assert operators.memory_words() == expected

    def test_order2_rejected(self, rng):
        with pytest.raises(ValueError):
            PairwiseOperators.build(rng.random((4, 4)), [rng.random((4, 2))] * 2)


class TestBuildWithProvider:
    def test_shares_provider_cache_and_matches_standalone(self, small_tensor3, factors3):
        provider = make_provider("msdt", small_tensor3, factors3)
        # run a sweep so the provider's cache holds reusable intermediates
        for mode in range(3):
            result = provider.mttkrp(mode)
            provider.set_factor(mode, result / (np.linalg.norm(result) + 1.0))
        shared = PairwiseOperators.build(
            small_tensor3, provider.factors, provider=provider
        )
        standalone = PairwiseOperators.build(small_tensor3, provider.factors)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.allclose(shared.pairs()[i, j],
                                   standalone.pairs()[i, j], atol=1e-10)
            assert np.allclose(shared.single(i), standalone.single(i), atol=1e-10)

    def test_provider_cache_reuse_saves_first_level_flops(self, rng):
        shape = (10, 10, 10)
        tensor = rng.random(shape)
        factors = [rng.random((10, 4)) for _ in range(3)]

        tracker_shared = CostTracker()
        provider = make_provider("msdt", tensor, [f.copy() for f in factors],
                                 tracker=CostTracker())
        for mode in range(3):
            result = provider.mttkrp(mode)
            provider.set_factor(mode, result / (np.linalg.norm(result) + 1.0))
        PairwiseOperators.build(tensor, provider.factors, tracker=tracker_shared,
                                provider=provider)

        tracker_standalone = CostTracker()
        PairwiseOperators.build(tensor, provider.factors, tracker=tracker_standalone)

        assert (tracker_shared.flops_by_category.get("ttm", 0)
                < tracker_standalone.flops_by_category.get("ttm", 0))

    def test_mismatched_provider_factors_raise(self, small_tensor3, factors3, rng):
        provider = make_provider("dt", small_tensor3, factors3)
        other = [rng.random(f.shape) for f in factors3]
        with pytest.raises(ValueError):
            PairwiseOperators.build(small_tensor3, other, provider=provider)

    def test_provider_bound_to_other_tensor_raises(self, small_tensor3, factors3, rng):
        provider = make_provider("dt", rng.random((3, 3, 3)), [rng.random((3, 4))] * 3)
        with pytest.raises(ValueError):
            PairwiseOperators.build(small_tensor3, factors3, provider=provider)


class TestBuildAfterASweep:
    """What a checkpoint pays on top of what the exact sweep before it left."""

    RANK = 3

    def warm_provider(self, engine, order, rng):
        shape = tuple(int(s) for s in rng.integers(4, 7, size=order))
        tensor = rng.random(shape)
        tracker = CostTracker()
        provider = make_provider(engine, tensor, [rng.random((s, self.RANK)) for s in shape],
                                 tracker=tracker)
        sweep(provider, [gram_matrix(f) for f in provider.factors], tracker=tracker)
        return tensor, provider, tracker

    def first_level_ttms(self, tracker, before, tensor) -> float:
        return (tracker.flops_by_category["ttm"] - before) / (2 * tensor.size * self.RANK)

    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_operators_match_the_oracle_and_reuse_the_sweep(self, order, engine, rng):
        tensor, provider, tracker = self.warm_provider(engine, order, rng)
        before = tracker.flops_by_category["ttm"]
        operators = PairwiseOperators.build(tensor, provider.factors, tracker=tracker,
                                            provider=provider)
        for i in range(order):
            for j in range(i + 1, order):
                assert np.allclose(operators.pairs()[i, j],
                                   partial_mttkrp(tensor, provider.factors, [i, j]),
                                   atol=1e-10)
            assert np.allclose(operators.single(i), mttkrp(tensor, provider.factors, i),
                               atol=1e-10)
        # the PP tree has three first-level intermediates at every order (Fig.
        # 1b); the sweep left one of them: T x A^(0) on dt, T x A^(N-2) on msdt
        assert self.first_level_ttms(tracker, before, tensor) == 2

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_cold_build_pays_three_first_level_ttms(self, order, rng):
        tensor, provider, _ = self.warm_provider("dt", order, rng)
        tracker = CostTracker()
        PairwiseOperators.build(tensor, provider.factors, tracker=tracker)
        assert self.first_level_ttms(tracker, 0, tensor) == 3


class TestConstructorValidation:
    """The singles fix ``(s_n, R)``; every pair is checked against them."""

    @staticmethod
    def singles(shape=(7, 6, 5), rank=4):
        return {n: np.zeros((s, rank)) for n, s in enumerate(shape)}

    def test_wrong_pair_shape_rejected(self):
        with pytest.raises(ValueError, match="pair operator"):
            PairwiseOperators({(0, 1): np.zeros((2, 2, 4))}, self.singles())

    def test_pair_rank_must_match_singles(self):
        with pytest.raises(ValueError, match="pair operator"):
            PairwiseOperators({(0, 1): np.zeros((7, 6, 3))}, self.singles())

    def test_bad_pair_key_rejected(self):
        with pytest.raises(ValueError, match="invalid pair key"):
            PairwiseOperators({(1, 0): np.zeros((6, 7, 4))}, self.singles())

    def test_singles_of_mixed_rank_rejected(self):
        singles = self.singles()
        singles[2] = np.zeros((5, 3))
        with pytest.raises(ValueError, match="single operator 2"):
            PairwiseOperators({}, singles)

    @pytest.mark.parametrize("modes", [(0, 1), (0, 1, 3)], ids=["order2", "gap"])
    def test_one_single_per_mode_of_order3_or_more(self, modes):
        with pytest.raises(ValueError, match="one single operator per mode"):
            PairwiseOperators({}, {n: np.zeros((4, 2)) for n in modes})


class TestDtypePreservation:
    def test_build_preserves_float32(self):
        """Regression: build used to force float64, so dtype=np.float32 runs
        silently did every PP phase in double precision (2x tensor memory)."""
        rng = np.random.default_rng(50)
        tensor = rng.random((5, 4, 3)).astype(np.float32)
        factors = [rng.random((s, 2)).astype(np.float32) for s in tensor.shape]
        ops = PairwiseOperators.build(tensor, factors)
        assert all(ops.single(n).dtype == np.float32 for n in range(3))
        assert all(arr.dtype == np.float32 for arr in ops.pairs().values())
        assert all(ops.first_order_mttkrp(n, factors).dtype == np.float32
                   for n in range(3))

    def test_int_tensor_still_promoted_to_float64(self):
        rng = np.random.default_rng(51)
        tensor = rng.integers(1, 5, size=(4, 4, 3))
        factors = [rng.random((s, 2)) for s in tensor.shape]
        ops = PairwiseOperators.build(tensor, factors)
        assert ops.single(0).dtype == np.float64

    def test_provider_bound_to_different_tensor_rejected(self):
        """Regression: a same-shaped but different tensor must not silently
        reuse the provider's cached intermediates."""
        rng = np.random.default_rng(52)
        a = rng.random((4, 4, 3))
        b = rng.random((4, 4, 3))
        factors = [rng.random((s, 2)) for s in a.shape]
        provider = make_provider("dt", a, [f.copy() for f in factors])
        with pytest.raises(ValueError, match="different tensor"):
            PairwiseOperators.build(b, provider.factors, provider=provider)

    def test_normalized_copy_of_same_tensor_accepted(self):
        """A provider holding a dtype/contiguity-normalized copy of the same
        data must still be able to share its cache."""
        rng = np.random.default_rng(53)
        tensor = np.asfortranarray(rng.random((4, 4, 3)))
        factors = [rng.random((s, 2)) for s in tensor.shape]
        provider = make_provider("dt", tensor, [f.copy() for f in factors])
        assert provider.tensor is not tensor  # C-normalized copy
        ops = PairwiseOperators.build(tensor, provider.factors, provider=provider)
        np.testing.assert_allclose(ops.single(0),
                                   mttkrp(np.ascontiguousarray(tensor),
                                          provider.factors, 0), atol=1e-10)

    def test_overlapping_view_of_different_data_rejected(self):
        """Same-shape overlapping views hold different data — must not share."""
        rng = np.random.default_rng(54)
        base = rng.random((5, 4, 3))
        provider = make_provider("dt", base[:4],
                                 [rng.random((s, 2)) for s in (4, 4, 3)])
        provider.mttkrp(0)
        with pytest.raises(ValueError, match="different tensor"):
            PairwiseOperators.build(base[1:5], provider.factors, provider=provider)


def _instance(backend, rng, shape=(6, 5, 4, 3), rank=3):
    tensor = rng.random(shape)
    if backend == "sparse":
        tensor = CooTensor.from_dense(tensor * (rng.random(shape) < 0.3))
    return tensor, [rng.random((s, rank)) for s in shape]


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestOneBuilder:
    def test_no_provider_is_a_fresh_dt_provider(self, backend, rng):
        """Without a provider the build runs on a private ``dt`` tree: the
        same operators, bit for bit, and the same charges as a fresh one."""
        tensor, factors = _instance(backend, rng)
        alone, fresh = CostTracker(), CostTracker()
        ops = PairwiseOperators.build(tensor, factors, tracker=alone)
        ref = PairwiseOperators.build(
            tensor, factors, tracker=fresh,
            provider=make_provider("dt", tensor, [f.copy() for f in factors]))
        assert sorted(ops.pairs()) == sorted(ref.pairs())
        for key, op in ops.pairs().items():
            assert np.array_equal(np.asarray(op), np.asarray(ref.pairs()[key]))
        for n in range(len(factors)):
            assert np.array_equal(ops.single(n), ref.single(n))
        assert alone.flops_by_category == fresh.flops_by_category

    @pytest.mark.parametrize("engine", ["naive", "unfolding"])
    def test_non_tree_provider_keeps_no_intermediate(self, backend, engine, rng):
        """A provider without a tree never invalidates its cache, so the build
        must leave nothing in it: after one update per mode it is empty."""
        tensor, factors = _instance(backend, rng)
        provider = make_provider(engine, tensor, [f.copy() for f in factors])
        PairwiseOperators.build(tensor, provider.factors, provider=provider)
        for mode, factor in enumerate(factors):
            provider.set_factor(mode, 2.0 * factor)
        assert provider.cache_stats()["entries"] == 0
