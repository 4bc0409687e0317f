"""End-to-end multi-rank sparse ``parallel_pp_cp_als`` (ISSUE 5).

The parallel PP driver on sparse inputs combines every layer this repo has
grown: COO partitioning onto the processor grid (every partitioner),
per-rank CSF-based dimension-tree providers, semi-sparse PP operators built
rank-locally off those providers' caches, and the Reduce-Scatter /
All-Gather / All-Reduce superstep structure of Algorithm 4.  Because the
simulated machine moves the numpy data exactly, the multi-rank runs must
reproduce the single-rank oracle to rounding for every partitioner — and the
runs must actually exercise the PP machinery (checkpoint, approximated
sweeps, return to exact sweeps), not converge before it activates.
"""

import numpy as np
import pytest

from repro.core.initialization import init_factors
from repro.core.options import PPOptions, ParallelPPOptions
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.core.pp_cp_als import pp_cp_als
from repro.data import sparse_low_rank_tensor
from repro.grid.balance import available_partitioners

PARTITIONERS = available_partitioners()


@pytest.fixture(scope="module")
def coo3():
    return sparse_low_rank_tensor((16, 14, 12), rank=3, density=0.25,
                                  noise=0.05, seed=42)


@pytest.fixture(scope="module")
def initial3(coo3):
    return init_factors(coo3.shape, 3, seed=17)


@pytest.fixture(scope="module")
def oracle3(coo3, initial3):
    """Single-rank sequential PP run — the parity oracle."""
    return pp_cp_als(coo3, PPOptions(rank=3, n_sweeps=25, tol=0.0, pp_tol=0.4),
                     initial_factors=initial3)


class TestPartitionerParity:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_multi_rank_matches_single_rank_oracle(self, coo3, initial3, oracle3,
                                                   partitioner):
        result = parallel_pp_cp_als(coo3,
                                    ParallelPPOptions(rank=3, grid=(2, 2, 1),
                                                      n_sweeps=25, tol=0.0, pp_tol=0.4,
                                                      partitioner=partitioner),
                                    initial_factors=initial3)
        assert result.count_sweeps("pp-init") == oracle3.count_sweeps("pp-init")
        assert result.count_sweeps("pp-approx") == oracle3.count_sweeps("pp-approx")
        assert np.isclose(result.fitness, oracle3.fitness, atol=1e-8)
        for a, b in zip(result.factors, oracle3.factors):
            assert np.allclose(a, b, atol=1e-7)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_order4_multi_rank_runs_pp_phases(self, partitioner):
        """Order-4 blocks: the semi-sparse PP operators must carry the run
        through real PP phases on every partitioner's block layout."""
        coo = sparse_low_rank_tensor((9, 8, 7, 6), rank=2, density=0.15,
                                     noise=0.05, seed=11)
        initial = init_factors(coo.shape, 2, seed=3)
        sequential = pp_cp_als(coo, PPOptions(rank=2, n_sweeps=18, tol=0.0, pp_tol=0.4),
                               initial_factors=initial)
        result = parallel_pp_cp_als(coo,
                                    ParallelPPOptions(rank=2, grid=(2, 1, 2, 1),
                                                      n_sweeps=18, tol=0.0, pp_tol=0.4,
                                                      partitioner=partitioner),
                                    initial_factors=initial)
        assert result.count_sweeps("pp-init") >= 1
        assert result.count_sweeps("pp-approx") >= 1
        assert np.isclose(result.fitness, sequential.fitness, atol=1e-7)


class TestCheckpointThenCorrect:
    def test_checkpoint_then_correct_step_sequence(self, coo3, initial3):
        """The recorded sweep sequence must show the Algorithm-4 phase
        structure: exact sweeps until the steps are small, then a pp-init
        checkpoint immediately followed by corrected (pp-approx) sweeps, and
        an exact sweep again after each PP phase ends."""
        result = parallel_pp_cp_als(coo3,
                                    ParallelPPOptions(rank=3, grid=(2, 2, 1),
                                                      n_sweeps=25, tol=0.0, pp_tol=0.4,
                                                      partitioner="nnz-balanced"),
                                    initial_factors=initial3)
        types = [s.sweep_type for s in result.sweeps]
        assert "pp-init" in types and "pp-approx" in types and "als" in types
        first_init = types.index("pp-init")
        # every checkpoint is followed by at least one corrected sweep
        for k, t in enumerate(types):
            if t == "pp-init":
                assert k + 1 < len(types) and types[k + 1] == "pp-approx", types
        # the run begins with exact sweeps (Algorithm 2 line 2 forces them)
        assert all(t == "als" for t in types[:first_init])

    def test_pp_phases_reduce_tracked_mttkrp_flops(self, coo3, initial3):
        """A pp-approx sweep must track fewer contraction flops than an exact
        sweep — that is the whole point of checkpoint-then-correct — and the
        semi-sparse pp-init must track fewer flops than one full exact sweep's
        MTTKRPs rebuilt per pair would."""
        result = parallel_pp_cp_als(coo3,
                                    ParallelPPOptions(rank=3, grid=(2, 2, 1),
                                                      n_sweeps=25, tol=0.0, pp_tol=0.4,
                                                      partitioner="nnz-balanced"),
                                    initial_factors=initial3)

        def contraction_flops(record):
            return record.flops.get("ttm", 0) + record.flops.get("mttv", 0)

        als = [s for s in result.sweeps if s.sweep_type == "als"]
        approx = [s for s in result.sweeps if s.sweep_type == "pp-approx"]
        assert als and approx
        assert np.mean([contraction_flops(s) for s in approx]) < \
            np.mean([contraction_flops(s) for s in als])
