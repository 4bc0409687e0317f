"""Tests for the sequential CP-ALS driver (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.cp_als import cp_als
from repro.core.initialization import init_factors
from repro.core.options import ALSOptions
from repro.machine.cost_tracker import CostTracker
from repro.tensor.norms import relative_residual


class TestConvergence:
    @pytest.mark.parametrize("engine", ["naive", "dt", "msdt"])
    def test_recovers_exact_low_rank_tensor(self, lowrank_tensor3, engine):
        result = cp_als(lowrank_tensor3,
                        ALSOptions(rank=4, n_sweeps=60, tol=1e-12, mttkrp=engine,
                                   seed=3))
        assert result.fitness > 0.99

    def test_order4_recovery(self, lowrank_tensor4):
        result = cp_als(lowrank_tensor4,
                        ALSOptions(rank=3, n_sweeps=60, tol=1e-12, mttkrp="msdt",
                                   seed=5))
        assert result.fitness > 0.99

    def test_residual_decreases_monotonically(self, lowrank_tensor3):
        result = cp_als(lowrank_tensor3,
                        ALSOptions(rank=3, n_sweeps=25, tol=0.0, seed=1))
        residuals = [s.residual for s in result.sweeps]
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= earlier + 1e-10

    def test_reported_residual_matches_exact_definition(self, small_tensor3):
        result = cp_als(small_tensor3, ALSOptions(rank=3, n_sweeps=8, tol=0.0, seed=2))
        exact = relative_residual(small_tensor3, result.factors)
        assert np.isclose(result.residual, exact, rtol=1e-8)

    def test_convergence_flag_set_when_tolerance_reached(self, lowrank_tensor3):
        result = cp_als(lowrank_tensor3,
                        ALSOptions(rank=4, n_sweeps=100, tol=1e-4, seed=3))
        assert result.converged
        assert result.n_sweeps < 100

    def test_sweep_budget_respected(self, small_tensor3):
        result = cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=5, tol=0.0, seed=0))
        assert result.n_sweeps == 5
        assert not result.converged


class TestEngineEquivalence:
    def test_all_engines_produce_identical_iterates(self, lowrank_tensor3):
        initial = init_factors(lowrank_tensor3.shape, 4, seed=9)
        results = {
            engine: cp_als(lowrank_tensor3,
                           ALSOptions(rank=4, n_sweeps=8, tol=0.0, mttkrp=engine),
                           initial_factors=initial)
            for engine in ("naive", "dt", "msdt")
        }
        reference = results["naive"]
        for engine, result in results.items():
            assert np.isclose(result.fitness, reference.fitness, atol=1e-9), engine
            for a, b in zip(result.factors, reference.factors):
                assert np.allclose(a, b, atol=1e-7), engine

    def test_engine_equivalence_order4(self, lowrank_tensor4):
        initial = init_factors(lowrank_tensor4.shape, 3, seed=2)
        naive = cp_als(lowrank_tensor4,
                       ALSOptions(rank=3, n_sweeps=6, tol=0.0, mttkrp="naive"),
                       initial_factors=initial)
        msdt = cp_als(lowrank_tensor4,
                      ALSOptions(rank=3, n_sweeps=6, tol=0.0, mttkrp="msdt"),
                      initial_factors=initial)
        for a, b in zip(naive.factors, msdt.factors):
            assert np.allclose(a, b, atol=1e-7)


class TestInterface:
    def test_records_and_breakdown(self, small_tensor3):
        result = cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=4, tol=0.0, seed=0))
        assert len(result.sweeps) == 4
        assert all(s.sweep_type == "als" for s in result.sweeps)
        assert result.sweeps[0].kernel_seconds  # at least one category measured
        assert result.sweeps[0].flops.get("ttm", 0) > 0
        cumulative = [s.cumulative_seconds for s in result.sweeps]
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))

    def test_callback_invoked_each_sweep(self, small_tensor3):
        calls = []
        cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=3, tol=0.0, seed=0),
               callback=lambda i, factors, fit: calls.append((i, fit)))
        assert [c[0] for c in calls] == [0, 1, 2]

    def test_external_tracker_used(self, small_tensor3):
        tracker = CostTracker()
        result = cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=2, tol=0.0, seed=0),
                        tracker=tracker)
        assert result.tracker is tracker
        assert tracker.total_flops > 0

    def test_initial_factors_not_mutated(self, small_tensor3):
        initial = init_factors(small_tensor3.shape, 2, seed=4)
        copies = [f.copy() for f in initial]
        cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=3, tol=0.0),
               initial_factors=initial)
        for original, copy in zip(initial, copies):
            assert np.array_equal(original, copy)

    def test_seed_reproducibility(self, small_tensor3):
        a = cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=3, tol=0.0, seed=7))
        b = cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=3, tol=0.0, seed=7))
        for x, y in zip(a.factors, b.factors):
            assert np.array_equal(x, y)

    def test_options_recorded(self, small_tensor3):
        result = cp_als(small_tensor3,
                        ALSOptions(rank=2, n_sweeps=2, tol=0.0, mttkrp="msdt", seed=0))
        assert result.options["mttkrp"] == "msdt"
        assert result.options["rank"] == 2


class TestValidation:
    def test_bad_rank_raises(self, small_tensor3):
        with pytest.raises(ValueError):
            cp_als(small_tensor3, ALSOptions(rank=0))

    def test_bad_n_sweeps_raises(self, small_tensor3):
        with pytest.raises(ValueError):
            cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=0))

    def test_negative_tol_raises(self, small_tensor3):
        with pytest.raises(ValueError):
            cp_als(small_tensor3, ALSOptions(rank=2, tol=-1.0))

    def test_unknown_engine_raises(self, small_tensor3):
        with pytest.raises(ValueError):
            cp_als(small_tensor3, ALSOptions(rank=2, mttkrp="quantum"))

    @pytest.mark.parametrize("rows", [(2, 2, 2), (7, 6, 5, 7), (7, 6)],
                             ids=["wrong-rows", "too-many", "too-few"])
    def test_wrong_initial_factor_shapes_raise(self, small_tensor3, rng, rows):
        bad = [rng.random((r, 2)) for r in rows]
        with pytest.raises(ValueError):
            cp_als(small_tensor3, ALSOptions(rank=2), initial_factors=bad)

    def test_order1_tensor_rejected(self, rng):
        with pytest.raises(ValueError):
            cp_als(rng.random(5), ALSOptions(rank=2))

    def test_nonfinite_tensor_rejected(self):
        tensor = np.full((3, 3, 3), np.nan)
        with pytest.raises(ValueError):
            cp_als(tensor, ALSOptions(rank=2))


class TestZeroNormGuard:
    """Regression: an all-zero tensor used to yield NaN/inf residuals and a
    garbage ``converged`` flag; it must be rejected explicitly."""

    def test_all_zero_tensor_raises(self):
        with pytest.raises(ValueError, match="zero Frobenius norm"):
            cp_als(np.zeros((4, 4, 4)), ALSOptions(rank=2, seed=0))

    def test_all_zero_tensor_raises_for_every_engine(self):
        for engine in ("naive", "dt", "msdt"):
            with pytest.raises(ValueError, match="zero Frobenius norm"):
                cp_als(np.zeros((3, 3, 3)), ALSOptions(rank=2, mttkrp=engine, seed=0))

    def test_nonzero_tensor_unaffected(self, small_tensor3):
        result = cp_als(small_tensor3, ALSOptions(rank=2, n_sweeps=2, tol=0.0, seed=0))
        assert np.isfinite(result.residual)


class TestDtypeNormalization:
    """Regression: float32/int tensors silently promoted inside contractions;
    the tensor dtype is now normalized (with an explicit escape hatch)."""

    def test_int_tensor_normalized_to_float64(self):
        tensor = np.arange(27).reshape(3, 3, 3) + 1
        result = cp_als(tensor, ALSOptions(rank=2, n_sweeps=3, tol=0.0, seed=0))
        assert result.options["dtype"] == "float64"
        assert all(f.dtype == np.float64 for f in result.factors)

    def test_float32_normalized_to_float64_by_default(self, small_tensor3):
        result = cp_als(small_tensor3.astype(np.float32),
                        ALSOptions(rank=2, n_sweeps=3, tol=0.0, seed=0))
        assert result.options["dtype"] == "float64"
        assert all(f.dtype == np.float64 for f in result.factors)

    def test_float32_end_to_end_with_escape_hatch(self, lowrank_tensor3):
        captured = []
        result = cp_als(lowrank_tensor3.astype(np.float32),
                        ALSOptions(rank=4, n_sweeps=30, tol=0.0, seed=3),
                        callback=lambda s, factors, fit: captured.append(
                            {f.dtype for f in factors}),
                        dtype=np.float32)
        assert result.options["dtype"] == "float32"
        assert all(f.dtype == np.float32 for f in result.factors)
        # every intermediate iterate stayed in single precision
        assert all(kinds == {np.dtype(np.float32)} for kinds in captured)
        # and the decomposition still converges on an exactly low-rank tensor
        assert result.fitness > 0.98

    def test_float32_matches_float64_loosely(self, lowrank_tensor3):
        from repro.core.initialization import init_factors

        initial = init_factors(lowrank_tensor3.shape, 3, seed=5)
        r64 = cp_als(lowrank_tensor3, ALSOptions(rank=3, n_sweeps=5, tol=0.0),
                     initial_factors=initial)
        r32 = cp_als(lowrank_tensor3.astype(np.float32),
                     ALSOptions(rank=3, n_sweeps=5, tol=0.0), initial_factors=initial,
                     dtype=np.float32)
        assert r32.residual == pytest.approx(r64.residual, abs=1e-4)

    def test_non_floating_dtype_rejected(self, small_tensor3):
        with pytest.raises(ValueError, match="floating"):
            cp_als(small_tensor3, ALSOptions(rank=2), dtype=np.int32)

    def test_narrowing_cast_overflow_rejected(self, small_tensor3):
        tensor = small_tensor3.copy()
        tensor[0, 0, 0] = 1e300  # finite in float64, inf in float32
        with pytest.raises(ValueError, match="non-finite"):
            cp_als(tensor, ALSOptions(rank=2), dtype=np.float32)
