"""Tests for the parallel CP-ALS driver (Algorithm 3) on the simulated machine."""

import numpy as np
import pytest

from repro.comm.simulated import SimulatedMachine
from repro.core.cp_als import cp_als
from repro.core.initialization import init_factors
from repro.core.options import ALSOptions, ParallelOptions, ParallelPPOptions
from repro.core.parallel_common import (
    ParallelRun,
    setup_parallel_state,
    zero_delta_factors,
)
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.distributed.dist_tensor import DistributedTensor
from repro.distributed.sparse import DistSparseTensor
from repro.grid.processor_grid import ProcessorGrid
from repro.machine.params import MachineParams
from repro.sparse import CooTensor


class TestEquivalenceWithSequential:
    @pytest.mark.parametrize("grid", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)])
    def test_matches_sequential_iterates_order3(self, lowrank_tensor3, grid):
        initial = init_factors(lowrank_tensor3.shape, 3, seed=13)
        sequential = cp_als(lowrank_tensor3,
                            ALSOptions(rank=3, n_sweeps=5, tol=0.0, mttkrp="dt"),
                            initial_factors=initial)
        parallel = parallel_cp_als(lowrank_tensor3,
                                   ParallelOptions(rank=3, grid=grid, n_sweeps=5,
                                                   tol=0.0, mttkrp="dt"),
                                   initial_factors=initial)
        assert np.isclose(parallel.fitness, sequential.fitness, atol=1e-8)
        for a, b in zip(parallel.factors, sequential.factors):
            assert np.allclose(a, b, atol=1e-6)

    def test_matches_sequential_with_padding(self, rng):
        # mode sizes not divisible by the grid dims exercise the padded path
        tensor = rng.random((7, 5, 9))
        initial = init_factors(tensor.shape, 3, seed=3)
        sequential = cp_als(tensor,
                            ALSOptions(rank=3, n_sweeps=4, tol=0.0, mttkrp="dt"),
                            initial_factors=initial)
        parallel = parallel_cp_als(tensor,
                                   ParallelOptions(rank=3, grid=(2, 2, 2), n_sweeps=4,
                                                   tol=0.0, mttkrp="dt"),
                                   initial_factors=initial)
        for a, b in zip(parallel.factors, sequential.factors):
            assert np.allclose(a, b, atol=1e-6)

    def test_matches_sequential_order4(self, lowrank_tensor4):
        initial = init_factors(lowrank_tensor4.shape, 3, seed=4)
        sequential = cp_als(lowrank_tensor4,
                            ALSOptions(rank=3, n_sweeps=3, tol=0.0, mttkrp="msdt"),
                            initial_factors=initial)
        parallel = parallel_cp_als(lowrank_tensor4,
                                   ParallelOptions(rank=3, grid=(2, 1, 2, 1),
                                                   n_sweeps=3, tol=0.0, mttkrp="msdt"),
                                   initial_factors=initial)
        for a, b in zip(parallel.factors, sequential.factors):
            assert np.allclose(a, b, atol=1e-6)

    def test_msdt_and_dt_give_same_parallel_result(self, lowrank_tensor3):
        initial = init_factors(lowrank_tensor3.shape, 3, seed=5)
        dt = parallel_cp_als(lowrank_tensor3,
                             ParallelOptions(rank=3, grid=(2, 2, 1), n_sweeps=4,
                                             tol=0.0, mttkrp="dt"),
                             initial_factors=initial)
        msdt = parallel_cp_als(lowrank_tensor3,
                               ParallelOptions(rank=3, grid=(2, 2, 1), n_sweeps=4,
                                               tol=0.0, mttkrp="msdt"),
                               initial_factors=initial)
        for a, b in zip(dt.factors, msdt.factors):
            assert np.allclose(a, b, atol=1e-6)


class TestParallelBehaviour:
    def test_accepts_predistributed_tensor(self, lowrank_tensor3):
        grid = ProcessorGrid((2, 2, 1))
        dist = DistributedTensor.from_dense(lowrank_tensor3, grid)
        result = parallel_cp_als(dist,
                                 ParallelOptions(rank=3, grid=grid, n_sweeps=3, tol=0.0,
                                                 seed=0))
        assert result.n_sweeps == 3

    def test_modeled_seconds_recorded_per_sweep(self, lowrank_tensor3):
        result = parallel_cp_als(lowrank_tensor3,
                                 ParallelOptions(rank=3, grid=(2, 2, 1), n_sweeps=3,
                                                 tol=0.0, seed=0))
        assert len(result.per_sweep_modeled_seconds) == 3
        assert all(t > 0 for t in result.per_sweep_modeled_seconds)
        assert result.sweeps[0].modeled_seconds == result.per_sweep_modeled_seconds[0]

    def test_communication_cost_increases_with_grid_size(self, lowrank_tensor3):
        small = parallel_cp_als(lowrank_tensor3,
                                ParallelOptions(rank=3, grid=(1, 1, 1), n_sweeps=2,
                                                tol=0.0, seed=0))
        large = parallel_cp_als(lowrank_tensor3,
                                ParallelOptions(rank=3, grid=(2, 2, 2), n_sweeps=2,
                                                tol=0.0, seed=0))
        assert small.critical_path.horizontal_words == 0
        assert large.critical_path.horizontal_words > 0

    def test_tracker_is_the_critical_path(self, lowrank_tensor3):
        """The machine's max-over-ranks tracker is computed once per run."""
        result = parallel_cp_als(lowrank_tensor3,
                                 ParallelOptions(rank=3, grid=(2, 1, 1), n_sweeps=2,
                                                 tol=0.0, seed=0))
        assert result.tracker is result.critical_path
        assert result.critical_path.total_flops > 0

    def test_distributed_solve_flag_changes_costs_not_results(self, lowrank_tensor3):
        initial = init_factors(lowrank_tensor3.shape, 3, seed=6)
        ours = parallel_cp_als(lowrank_tensor3,
                               ParallelOptions(rank=3, grid=(2, 2, 1), n_sweeps=3,
                                               tol=0.0, distributed_solve=True),
                               initial_factors=initial)
        planc = parallel_cp_als(lowrank_tensor3,
                                ParallelOptions(rank=3, grid=(2, 2, 1), n_sweeps=3,
                                                tol=0.0, distributed_solve=False),
                                initial_factors=initial)
        for a, b in zip(ours.factors, planc.factors):
            assert np.allclose(a, b, atol=1e-8)
        assert (planc.critical_path.flops_by_category.get("solve", 0)
                > ours.critical_path.flops_by_category.get("solve", 0))

    def test_custom_machine_and_params(self, lowrank_tensor3):
        grid = (2, 1, 1)
        machine = SimulatedMachine(2, params=MachineParams.container_like())
        result = parallel_cp_als(lowrank_tensor3,
                                 ParallelOptions(rank=2, grid=grid, n_sweeps=2, tol=0.0,
                                                 seed=0),
                                 machine=machine)
        assert result.grid_dims == (2, 1, 1)
        assert machine.tracker(0).total_flops > 0

    def test_converges_on_low_rank_tensor(self, lowrank_tensor3):
        result = parallel_cp_als(lowrank_tensor3,
                                 ParallelOptions(rank=4, grid=(2, 2, 1), n_sweeps=40,
                                                 tol=1e-8, seed=1))
        assert result.fitness > 0.99

    def test_kernel_breakdown_present(self, lowrank_tensor3):
        result = parallel_cp_als(lowrank_tensor3,
                                 ParallelOptions(rank=3, grid=(2, 1, 1), n_sweeps=2,
                                                 tol=0.0, seed=0))
        assert result.sweeps[0].flops.get("ttm", 0) > 0
        assert "solve" in result.sweeps[0].flops


class TestValidation:
    def test_grid_order_mismatch_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            parallel_cp_als(lowrank_tensor3,
                            ParallelOptions(rank=2, grid=(2, 2), n_sweeps=2))

    def test_machine_rank_mismatch_raises(self, lowrank_tensor3):
        machine = SimulatedMachine(3)
        with pytest.raises(ValueError):
            parallel_cp_als(lowrank_tensor3, ParallelOptions(rank=2, grid=(2, 2, 1)),
                            machine=machine)

    def test_predistributed_tensor_grid_mismatch_raises(self, lowrank_tensor3):
        dist = DistributedTensor.from_dense(lowrank_tensor3, ProcessorGrid((2, 1, 1)))
        with pytest.raises(ValueError):
            parallel_cp_als(dist, ParallelOptions(rank=2, grid=(2, 2, 1), n_sweeps=2))

    def test_bad_rank_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            parallel_cp_als(lowrank_tensor3, ParallelOptions(rank=0, grid=(1, 1, 1)))

    def test_negative_tol_raises(self, lowrank_tensor3):
        with pytest.raises(ValueError):
            parallel_cp_als(lowrank_tensor3,
                            ParallelOptions(rank=2, grid=(1, 1, 1), tol=-1.0))


class TestZeroNormGuard:
    """An all-zero tensor is refused before partitioning, before the machine
    (and any worker) starts and before a sweep, with the sequential message."""

    @pytest.mark.parametrize("driver,options_cls", [
        (parallel_cp_als, ParallelOptions),
        (parallel_pp_cp_als, ParallelPPOptions),
    ])
    @pytest.mark.parametrize("kind", ["dense", "coo"])
    def test_rejected_before_any_work(self, monkeypatch, driver, options_cls, kind):
        def never(*args, **kwargs):
            raise AssertionError("the all-zero tensor got past the norm check")

        monkeypatch.setattr(DistributedTensor, "from_dense", never)
        monkeypatch.setattr(DistSparseTensor, "from_coo", never)
        monkeypatch.setattr(SimulatedMachine, "__init__", never)
        monkeypatch.setattr(ParallelRun, "exact_sweep", never)
        tensor = (np.zeros((4, 5, 6)) if kind == "dense" else
                  CooTensor(np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 5, 6)))
        with pytest.raises(ValueError, match="^tensor has zero Frobenius norm; "):
            driver(tensor, options_cls(rank=2, grid=(2, 1, 1), n_sweeps=3, seed=0))


class TestOneLayout:
    """Dense and sparse runs distribute by one kind of object: the tensor's
    partition, whose per-mode cuts the factor rows follow."""

    @pytest.mark.parametrize("partitioner", [None, "uniform", "nnz-balanced", "joint"])
    def test_factor_rows_follow_the_tensor_partition(self, rng, partitioner):
        dense = rng.random((9, 8, 7)) * (rng.random((9, 8, 7)) < 0.4)
        tensor = dense if partitioner is None else CooTensor.from_dense(dense)
        options = ParallelOptions(rank=3, grid=(2, 3, 2),
                                  partitioner=partitioner or "nnz-balanced")
        state = setup_parallel_state(tensor, options)
        try:
            partition = state.dist_tensor.partition
            assert partition.name == (partitioner or "uniform")
            for mode, factor in enumerate(state.dist_factors):
                assert factor.partition is partition.modes[mode]
            for mode, delta in enumerate(zero_delta_factors(state)):
                assert delta.partition is partition.modes[mode]
                assert not delta.padded_global().any()
        finally:
            state.close()

    @pytest.mark.parametrize("predistributed", [False, True])
    @pytest.mark.parametrize("driver", ["als", "pp"])
    def test_dense_run_reports_the_uniform_partitioner(self, lowrank_tensor3,
                                                       driver, predistributed):
        grid = ProcessorGrid((2, 2, 1))
        tensor = (DistributedTensor.from_dense(lowrank_tensor3, grid)
                  if predistributed else lowrank_tensor3)
        if driver == "als":
            result = parallel_cp_als(tensor, ParallelOptions(rank=3, grid=grid,
                                                             n_sweeps=2))
        else:
            result = parallel_pp_cp_als(tensor, ParallelPPOptions(rank=3, grid=grid,
                                                                  n_sweeps=2))
        assert result.options["partitioner"] == "uniform"
