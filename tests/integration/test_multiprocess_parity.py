"""Cross-process parity: ProcessMachine sweeps against the in-process oracles.

The :class:`~repro.comm.procs.ProcessMachine` moves every rank-local kernel
(MTTKRP, PP operator builds, PP contributions) into real spawned worker
processes with shared-memory factor panels, while the collectives stay
master-driven exactly as on the simulated machine.  A worker runs the same
:class:`~repro.distributed.rank.RankKernels` a simulated rank runs in the
master.  Two consequences are pinned here, over the full partitioner x engine
x driver matrix (every engine of the sparse registry, so the COO and CSR
engines run inside the workers as well as the dimension trees):

* at the *same* rank count, a process run and a simulated run execute the
  same float64 operations on the same operands in the same order, so their
  factors are bit-identical (``np.array_equal``);
* against the *single-rank* oracle the reduction grouping differs (P partial
  MTTKRPs summed by the Reduce-Scatter instead of one local kernel), so
  parity holds to rounding (1e-10 on these tiny inputs), not bitwise —
  floating-point addition is not associative.

One :class:`ProcessMachine` per rank count is shared module-wide (worker
spawn is the expensive part; the per-run :class:`ProcessRuntime` attaches and
detaches cleanly), and the module teardown asserts that no shared-memory
segment leaked from any run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.comm.procs import ProcessMachine, leaked_segments
from repro.core.initialization import init_factors
from repro.core.options import ParallelOptions, ParallelPPOptions
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.data import sparse_low_rank_tensor
from repro.grid.balance import available_partitioners
from repro.trees.registry import available_providers

PARTITIONERS = available_partitioners()
ENGINES = tuple(available_providers())
GRID = (1, 2, 2)
RANK = 3
ATOL = 1e-10


@pytest.fixture(scope="module")
def coo():
    return sparse_low_rank_tensor((14, 12, 10), rank=3, density=0.3,
                                  noise=0.05, seed=7)


@pytest.fixture(scope="module")
def initial(coo):
    return init_factors(coo.shape, RANK, seed=17)


@pytest.fixture(scope="module")
def machine4():
    """One ProcessMachine(4) for every P=4 parity run in this module."""
    machine = ProcessMachine(4)
    yield machine
    machine.close()
    assert leaked_segments() == []


def _als_options(partitioner, engine):
    return ParallelOptions(rank=RANK, grid=GRID, n_sweeps=6, tol=0.0, mttkrp=engine,
                           partitioner=partitioner, seed=0)


def _pp_options(partitioner, engine):
    return ParallelPPOptions(rank=RANK, grid=GRID, n_sweeps=16, tol=0.0, pp_tol=0.4,
                             mttkrp=engine, partitioner=partitioner, seed=0)


@pytest.fixture(scope="module")
def data(initial):
    """The data arguments every parity run shares."""
    return dict(initial_factors=initial)


class TestProcessParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_cp_als_matches_oracles(self, coo, data, machine4,
                                    partitioner, engine):
        options = _als_options(partitioner, engine)
        proc = parallel_cp_als(coo, options, machine=machine4, **data)
        sim = parallel_cp_als(coo, options, **data)
        single = parallel_cp_als(coo, replace(options, grid=(1, 1, 1)), **data)
        assert proc.options["execution"] == "ProcessMachine"
        for a, b in zip(proc.factors, sim.factors):
            assert np.array_equal(a, b)
        for a, b in zip(proc.factors, single.factors):
            np.testing.assert_allclose(a, b, atol=ATOL, rtol=0)
        assert np.isclose(proc.residual, single.residual, atol=ATOL)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_pp_cp_als_matches_oracles(self, coo, data, machine4,
                                       partitioner, engine):
        options = _pp_options(partitioner, engine)
        proc = parallel_pp_cp_als(coo, options, machine=machine4, **data)
        sim = parallel_pp_cp_als(coo, options, **data)
        # the PP machinery must actually engage, and identically on both
        # substrates — phase structure is part of the parity contract
        assert proc.count_sweeps("pp-init") == sim.count_sweeps("pp-init")
        assert proc.count_sweeps("pp-approx") == sim.count_sweeps("pp-approx")
        assert proc.count_sweeps("pp-approx") >= 1
        for a, b in zip(proc.factors, sim.factors):
            assert np.array_equal(a, b)


class TestSeededDeterminism:
    def test_repeated_runs_bit_identical(self, coo, machine4):
        """Same seed, same machine: two runs must agree bit-for-bit."""
        options = ParallelOptions(rank=RANK, grid=GRID, n_sweeps=5, tol=0.0, mttkrp="dt",
                                  partitioner="nnz-balanced", seed=123)
        first = parallel_cp_als(coo, options, machine=machine4)
        second = parallel_cp_als(coo, options, machine=machine4)
        for a, b in zip(first.factors, second.factors):
            assert np.array_equal(a, b)

    def test_across_rank_counts(self, coo, machine4):
        """P=1/2/4 with the same seed agree to 1e-10 (the Reduce-Scatter sums
        P partial MTTKRPs, so the fp grouping — and hence the last bits —
        legitimately differ across rank counts), and each rank count is
        itself bitwise reproducible."""
        def run(machine, grid):
            return parallel_cp_als(coo,
                                   ParallelOptions(rank=RANK, grid=grid, n_sweeps=5,
                                                   tol=0.0, mttkrp="dt", seed=123,
                                                   partitioner="nnz-balanced"),
                                   machine=machine).factors

        results = {4: run(machine4, GRID)}
        for n_ranks, grid in ((1, (1, 1, 1)), (2, (1, 1, 2))):
            with ProcessMachine(n_ranks) as machine:
                results[n_ranks] = run(machine, grid)
                again = run(machine, grid)
            for a, b in zip(results[n_ranks], again):
                assert np.array_equal(a, b)
        for p in (1, 2):
            for a, b in zip(results[p], results[4]):
                np.testing.assert_allclose(a, b, atol=ATOL, rtol=0)
