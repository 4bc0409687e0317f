"""Tests for the communication-efficient parallel PP driver (Algorithm 4)."""

import numpy as np
import pytest

from repro.core.initialization import init_factors
from repro.core.options import PPOptions, ParallelPPOptions
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.core.pp_cp_als import pp_cp_als


class TestCorrectness:
    def test_matches_sequential_pp_on_single_rank_grid(self, lowrank_tensor3):
        initial = init_factors(lowrank_tensor3.shape, 3, seed=23)
        sequential = pp_cp_als(lowrank_tensor3,
                               PPOptions(rank=3, n_sweeps=20, tol=0.0, pp_tol=0.3),
                               initial_factors=initial)
        parallel = parallel_pp_cp_als(lowrank_tensor3,
                                      ParallelPPOptions(rank=3, grid=(1, 1, 1),
                                                        n_sweeps=20, tol=0.0,
                                                        pp_tol=0.3),
                                      initial_factors=initial)
        assert parallel.count_sweeps("pp-init") == sequential.count_sweeps("pp-init")
        assert parallel.count_sweeps("pp-approx") == sequential.count_sweeps("pp-approx")
        assert np.isclose(parallel.fitness, sequential.fitness, atol=1e-6)
        for a, b in zip(parallel.factors, sequential.factors):
            assert np.allclose(a, b, atol=1e-5)

    def test_matches_sequential_pp_on_multi_rank_grid(self, lowrank_tensor3):
        initial = init_factors(lowrank_tensor3.shape, 3, seed=29)
        sequential = pp_cp_als(lowrank_tensor3,
                               PPOptions(rank=3, n_sweeps=15, tol=0.0, pp_tol=0.3),
                               initial_factors=initial)
        parallel = parallel_pp_cp_als(lowrank_tensor3,
                                      ParallelPPOptions(rank=3, grid=(2, 2, 1),
                                                        n_sweeps=15, tol=0.0,
                                                        pp_tol=0.3),
                                      initial_factors=initial)
        assert np.isclose(parallel.fitness, sequential.fitness, atol=1e-5)

    def test_converges_on_low_rank_tensor(self, lowrank_tensor3):
        result = parallel_pp_cp_als(lowrank_tensor3,
                                    ParallelPPOptions(rank=4, grid=(2, 2, 1),
                                                      n_sweeps=60, tol=1e-9, pp_tol=0.3,
                                                      seed=2))
        assert result.fitness > 0.99

    def test_order4_runs(self, lowrank_tensor4):
        result = parallel_pp_cp_als(lowrank_tensor4,
                                    ParallelPPOptions(rank=3, grid=(2, 1, 2, 1),
                                                      n_sweeps=30, tol=1e-7, pp_tol=0.4,
                                                      seed=2))
        assert result.fitness > 0.9


class TestPhasesAndCosts:
    def test_all_sweep_types_present(self, lowrank_tensor3):
        result = parallel_pp_cp_als(lowrank_tensor3,
                                    ParallelPPOptions(rank=4, grid=(2, 1, 1),
                                                      n_sweeps=50, tol=1e-12,
                                                      pp_tol=0.4, seed=3))
        assert result.count_sweeps("als") >= 1
        assert result.count_sweeps("pp-init") >= 1
        assert result.count_sweeps("pp-approx") >= 1

    def test_pp_init_has_no_horizontal_communication(self, lowrank_tensor3):
        """The local PP initialization (Algorithm 4 line 2) communicates nothing."""
        result = parallel_pp_cp_als(lowrank_tensor3,
                                    ParallelPPOptions(rank=3, grid=(2, 2, 1),
                                                      n_sweeps=30, tol=0.0, pp_tol=0.5,
                                                      seed=1))
        init_records = [s for s in result.sweeps if s.sweep_type == "pp-init"]
        approx_records = [s for s in result.sweeps if s.sweep_type == "pp-approx"]
        assert init_records and approx_records
        # modeled time of a PP-init step contains no alpha/beta term, so its
        # modeled seconds equal pure local compute; the approx sweeps do
        # communicate (Reduce-Scatter / All-Gather / All-Reduce per mode).
        assert all(r.modeled_seconds is not None for r in init_records)

    def test_pp_approx_cheaper_than_exact_sweep_in_contraction_flops(self, rng):
        tensor = rng.random((10, 10, 10))
        result = parallel_pp_cp_als(tensor,
                                    ParallelPPOptions(rank=4, grid=(2, 1, 1),
                                                      n_sweeps=40, tol=0.0, pp_tol=0.6,
                                                      seed=0))
        als = [s for s in result.sweeps if s.sweep_type == "als"]
        approx = [s for s in result.sweeps if s.sweep_type == "pp-approx"]
        assert als and approx
        als_flops = np.mean([s.flops.get("ttm", 0) + s.flops.get("mttv", 0) for s in als])
        approx_flops = np.mean([s.flops.get("ttm", 0) + s.flops.get("mttv", 0)
                                for s in approx])
        assert approx_flops < als_flops

    def test_modeled_seconds_recorded(self, lowrank_tensor3):
        result = parallel_pp_cp_als(lowrank_tensor3,
                                    ParallelPPOptions(rank=3, grid=(2, 1, 1),
                                                      n_sweeps=10, tol=0.0, pp_tol=0.4,
                                                      seed=1))
        assert len(result.per_sweep_modeled_seconds) == len(result.sweeps)
        assert all(t >= 0 for t in result.per_sweep_modeled_seconds)


class TestValidation:
    def test_pp_tol_out_of_range_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            parallel_pp_cp_als(lowrank_tensor3,
                               ParallelPPOptions(rank=2, grid=(1, 1, 1), pp_tol=2.0))

    def test_grid_order_mismatch_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            parallel_pp_cp_als(lowrank_tensor3, ParallelPPOptions(rank=2, grid=(2, 2)))

    def test_bad_rank_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            parallel_pp_cp_als(lowrank_tensor3,
                               ParallelPPOptions(rank=0, grid=(1, 1, 1)))
