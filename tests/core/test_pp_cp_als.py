"""Tests for the sequential pairwise-perturbation driver (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.cp_als import cp_als
from repro.core.initialization import init_factors
from repro.core.options import ALSOptions, PPOptions
from repro.core.pp_cp_als import pp_cp_als
from repro.tensor.norms import relative_residual


class TestConvergence:
    def test_recovers_low_rank_tensor(self, lowrank_tensor3):
        result = pp_cp_als(lowrank_tensor3,
                           PPOptions(rank=4, n_sweeps=80, tol=1e-10, pp_tol=0.3, seed=3))
        assert result.fitness > 0.99

    def test_order4_runs_and_improves(self, lowrank_tensor4):
        result = pp_cp_als(lowrank_tensor4,
                           PPOptions(rank=3, n_sweeps=60, tol=1e-8, pp_tol=0.4, seed=5))
        assert result.fitness > 0.95

    def test_reaches_similar_fitness_as_exact_als(self, lowrank_tensor3):
        initial = init_factors(lowrank_tensor3.shape, 4, seed=11)
        exact = cp_als(lowrank_tensor3, ALSOptions(rank=4, n_sweeps=60, tol=1e-8),
                       initial_factors=initial)
        pp = pp_cp_als(lowrank_tensor3,
                       PPOptions(rank=4, n_sweeps=120, tol=1e-8, pp_tol=0.2),
                       initial_factors=initial)
        assert pp.fitness >= exact.fitness - 0.02

    def test_final_residual_close_to_exact_definition(self, lowrank_tensor3):
        result = pp_cp_als(lowrank_tensor3,
                           PPOptions(rank=4, n_sweeps=60, tol=1e-8, pp_tol=0.2, seed=1))
        exact = relative_residual(lowrank_tensor3, result.factors)
        # the reported residual of a PP-approximated sweep is itself an
        # approximation; it must stay close to the true value
        assert abs(result.residual - exact) < 5e-3

    def test_fitness_history_mostly_increasing(self, lowrank_tensor3):
        result = pp_cp_als(lowrank_tensor3,
                           PPOptions(rank=4, n_sweeps=60, tol=1e-9, pp_tol=0.2, seed=7))
        fits = [s.fitness for s in result.sweeps if s.sweep_type != "pp-init"]
        drops = sum(1 for a, b in zip(fits, fits[1:]) if b < a - 1e-3)
        assert drops == 0


class TestPPPhases:
    def test_all_sweep_types_recorded(self, lowrank_tensor3):
        result = pp_cp_als(lowrank_tensor3,
                           PPOptions(rank=4, n_sweeps=80, tol=1e-12, pp_tol=0.3, seed=3))
        assert result.count_sweeps("als") >= 1
        assert result.count_sweeps("pp-init") >= 1
        assert result.count_sweeps("pp-approx") >= 1

    def test_tiny_pp_tol_never_activates_pp(self, lowrank_tensor3):
        result = pp_cp_als(lowrank_tensor3,
                           PPOptions(rank=4, n_sweeps=15, tol=0.0, pp_tol=1e-9, seed=3))
        assert result.count_sweeps("pp-init") == 0
        assert result.count_sweeps("pp-approx") == 0
        assert result.count_sweeps("als") == 15

    def test_sweep_budget_caps_total_sweeps(self, lowrank_tensor3):
        result = pp_cp_als(lowrank_tensor3,
                           PPOptions(rank=4, n_sweeps=12, tol=0.0, pp_tol=0.5, seed=3))
        assert result.n_sweeps <= 12
        assert len(result.sweeps) == result.n_sweeps

    def test_max_pp_sweeps_per_phase_respected(self, lowrank_tensor3):
        result = pp_cp_als(lowrank_tensor3,
                           PPOptions(rank=4, n_sweeps=40, tol=0.0, pp_tol=0.9, seed=3,
                                     max_pp_sweeps_per_phase=2))
        # between two pp-init records there can be at most 2 pp-approx records
        run = 0
        for sweep in result.sweeps:
            if sweep.sweep_type == "pp-approx":
                run += 1
                assert run <= 2
            else:
                run = 0

    def test_matches_exact_als_before_pp_activates(self, lowrank_tensor3):
        """With PP never activating, PP-CP-ALS must equal plain MSDT CP-ALS."""
        initial = init_factors(lowrank_tensor3.shape, 4, seed=21)
        pp = pp_cp_als(lowrank_tensor3,
                       PPOptions(rank=4, n_sweeps=6, tol=0.0, pp_tol=1e-12),
                       initial_factors=initial)
        exact = cp_als(lowrank_tensor3,
                       ALSOptions(rank=4, n_sweeps=6, tol=0.0, mttkrp="msdt"),
                       initial_factors=initial)
        for a, b in zip(pp.factors, exact.factors):
            assert np.allclose(a, b, atol=1e-8)

    def test_pp_init_records_have_flops(self, lowrank_tensor3):
        result = pp_cp_als(lowrank_tensor3,
                           PPOptions(rank=4, n_sweeps=60, tol=1e-12, pp_tol=0.3, seed=3))
        init_records = [s for s in result.sweeps if s.sweep_type == "pp-init"]
        assert init_records
        assert all(sum(r.flops.values()) > 0 for r in init_records)


class TestValidation:
    def test_pp_tol_out_of_range_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            pp_cp_als(lowrank_tensor3, PPOptions(rank=2, pp_tol=0.0))
        with pytest.raises(ValueError):
            pp_cp_als(lowrank_tensor3, PPOptions(rank=2, pp_tol=1.5))

    def test_order2_tensor_rejected(self, rng):
        with pytest.raises(ValueError):
            pp_cp_als(rng.random((5, 5)), PPOptions(rank=2))

    def test_bad_rank_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            pp_cp_als(lowrank_tensor3, PPOptions(rank=-1))

    def test_negative_tol_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            pp_cp_als(lowrank_tensor3, PPOptions(rank=2, tol=-0.1))

    def test_all_zero_tensor_raises(self):
        with pytest.raises(ValueError, match="zero Frobenius norm"):
            pp_cp_als(np.zeros((4, 4, 4)), PPOptions(rank=2, seed=0))

    def test_float32_escape_hatch(self, lowrank_tensor3):
        # pp_tol close to 1 forces real PP phases, so the float32 path is
        # exercised through the operator builder, not just the exact sweeps
        result = pp_cp_als(lowrank_tensor3.astype(np.float32),
                           PPOptions(rank=3, n_sweeps=25, tol=0.0, pp_tol=0.7, seed=1),
                           dtype=np.float32)
        assert result.options["dtype"] == "float32"
        assert all(f.dtype == np.float32 for f in result.factors)
        assert any(s.sweep_type == "pp-approx" for s in result.sweeps)
