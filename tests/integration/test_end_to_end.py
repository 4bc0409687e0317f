"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import (
    cp_als,
    parallel_cp_als,
    parallel_pp_cp_als,
    pp_cp_als,
    random_cp_tensor,
)
from repro.core.initialization import init_factors
from repro.core.options import ALSOptions, PPOptions, ParallelOptions, ParallelPPOptions
from repro.data.collinearity import collinearity_tensor
from repro.data.quantum_chemistry import density_fitting_tensor
from repro.tensor.norms import fitness


class TestExactRecovery:
    """All four drivers must recover an exact low-rank tensor to high fitness."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return random_cp_tensor((14, 12, 13), rank=4, seed=100).full()

    def test_sequential_als(self, tensor):
        result = cp_als(tensor,
                        ALSOptions(rank=4, n_sweeps=80, tol=1e-10, mttkrp="dt", seed=0))
        assert result.fitness > 0.995

    def test_sequential_pp(self, tensor):
        result = pp_cp_als(tensor,
                           PPOptions(rank=4, n_sweeps=150, tol=1e-10, pp_tol=0.2,
                                     seed=0))
        assert result.fitness > 0.995

    def test_parallel_als(self, tensor):
        result = parallel_cp_als(tensor,
                                 ParallelOptions(rank=4, grid=(2, 2, 1), n_sweeps=60,
                                                 tol=1e-10, seed=0))
        assert result.fitness > 0.99

    def test_parallel_pp(self, tensor):
        result = parallel_pp_cp_als(tensor,
                                    ParallelPPOptions(rank=4, grid=(2, 1, 2),
                                                      n_sweeps=80, tol=1e-10,
                                                      pp_tol=0.2, seed=0))
        assert result.fitness > 0.99

    def test_reported_fitness_matches_reconstruction(self, tensor):
        result = cp_als(tensor, ALSOptions(rank=4, n_sweeps=40, tol=1e-10, seed=1))
        assert np.isclose(result.fitness, fitness(tensor, result.factors), atol=1e-8)


class TestCrossDriverConsistency:
    def test_all_exact_drivers_agree_from_shared_initialization(self):
        tensor = random_cp_tensor((10, 9, 11), rank=3, seed=5).full()
        initial = init_factors(tensor.shape, 3, seed=77)
        seq_dt = cp_als(tensor, ALSOptions(rank=3, n_sweeps=6, tol=0.0, mttkrp="dt"),
                        initial_factors=initial)
        seq_msdt = cp_als(tensor,
                          ALSOptions(rank=3, n_sweeps=6, tol=0.0, mttkrp="msdt"),
                          initial_factors=initial)
        par = parallel_cp_als(tensor,
                              ParallelOptions(rank=3, grid=(2, 2, 1), n_sweeps=6,
                                              tol=0.0, mttkrp="dt"),
                              initial_factors=initial)
        for a, b, c in zip(seq_dt.factors, seq_msdt.factors, par.factors):
            assert np.allclose(a, b, atol=1e-7)
            assert np.allclose(a, c, atol=1e-6)

    def test_pp_drivers_agree_from_shared_initialization(self):
        tensor = random_cp_tensor((9, 10, 8), rank=3, seed=6).full()
        initial = init_factors(tensor.shape, 3, seed=88)
        seq = pp_cp_als(tensor, PPOptions(rank=3, n_sweeps=20, tol=0.0, pp_tol=0.3),
                        initial_factors=initial)
        par = parallel_pp_cp_als(tensor,
                                 ParallelPPOptions(rank=3, grid=(2, 1, 2), n_sweeps=20,
                                                   tol=0.0, pp_tol=0.3),
                                 initial_factors=initial)
        assert np.isclose(seq.fitness, par.fitness, atol=1e-5)

    def test_pp_uses_fewer_tensor_contraction_flops_to_same_sweep_count(self):
        """The point of PP: far fewer tensor-sized contractions per sweep."""
        tensor = collinearity_tensor((18, 18, 18), 5, (0.6, 0.8), seed=3).tensor
        initial = init_factors(tensor.shape, 5, seed=9)
        exact = cp_als(tensor, ALSOptions(rank=5, n_sweeps=40, tol=0.0, mttkrp="dt"),
                       initial_factors=initial)
        pp = pp_cp_als(tensor, PPOptions(rank=5, n_sweeps=40, tol=0.0, pp_tol=0.3),
                       initial_factors=initial)
        exact_contraction = (exact.tracker.flops_by_category.get("ttm", 0)
                             + exact.tracker.flops_by_category.get("mttv", 0))
        pp_contraction = (pp.tracker.flops_by_category.get("ttm", 0)
                          + pp.tracker.flops_by_category.get("mttv", 0))
        assert pp.count_sweeps("pp-approx") > 0
        assert pp_contraction < exact_contraction
        # and it must not lose accuracy
        assert pp.fitness > exact.fitness - 0.02


class TestApplicationWorkloads:
    def test_quantum_chemistry_surrogate_decomposition(self):
        # like the paper's density-fitting tensor (Fig. 5b reaches fitness ~0.55
        # at R=300), the surrogate is hard to compress: a rank equal to ~80% of
        # its effective rank captures roughly half of its norm
        tensor = density_fitting_tensor(n_aux=36, n_orb=10, seed=1)
        result = pp_cp_als(tensor,
                           PPOptions(rank=8, n_sweeps=60, tol=1e-6, pp_tol=0.1, seed=2))
        assert result.fitness > 0.4
        assert result.count_sweeps("als") >= 1

    def test_parallel_run_on_chemistry_surrogate(self):
        tensor = density_fitting_tensor(n_aux=24, n_orb=8, seed=4)
        result = parallel_cp_als(tensor,
                                 ParallelOptions(rank=6, grid=(2, 1, 1), n_sweeps=25,
                                                 tol=1e-6, seed=0))
        assert result.fitness > 0.4
        assert result.per_sweep_modeled_seconds
