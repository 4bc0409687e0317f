"""DistSparseTensor distribution, reassembly and the parallel sparse sweep."""

import numpy as np
import pytest

from repro.core.cp_als import cp_als
from repro.core.initialization import init_factors
from repro.core.options import ALSOptions, ParallelOptions, ParallelPPOptions
from repro.core.parallel_cp_als import parallel_cp_als
from repro.data.sparse_synthetic import (
    sparse_low_rank_tensor,
    sparse_skewed_count_tensor,
)
from repro.distributed import DistSparseTensor, DistributedFactor
from repro.grid import ProcessorGrid, available_partitioners, make_partition
from repro.grid.balance import ModePartition
from repro.sparse import CooTensor

GRID = ProcessorGrid((2, 2, 2))


@pytest.fixture(scope="module")
def skewed():
    return sparse_skewed_count_tensor((20, 16, 12), 0.05, alpha=1.2, seed=3)


class TestDistSparseTensor:
    @pytest.mark.parametrize("kind", available_partitioners())
    def test_round_trip(self, skewed, kind):
        dist = DistSparseTensor.from_coo(skewed, GRID, kind, seed=7)
        back = dist.to_coo()
        assert np.array_equal(back.indices, skewed.indices)
        assert np.allclose(back.values, skewed.values)
        assert np.allclose(dist.to_dense(), skewed.to_dense())
        assert dist.nnz == skewed.nnz
        assert dist.norm() == pytest.approx(skewed.norm(), rel=1e-12)

    def test_local_blocks_share_padded_shape(self, skewed):
        dist = DistSparseTensor.from_coo(skewed, GRID, "nnz-balanced")
        for rank in GRID.ranks():
            assert dist.local_block(rank).shape == dist.local_shape
            assert dist.local_nbytes(rank) >= 0
        assert dist.local_shape == dist.partition.padded_extents

    def test_report_matches_blocks(self, skewed):
        dist = DistSparseTensor.from_coo(skewed, GRID, "nnz-balanced")
        report = dist.report()
        assert report.per_rank_nnz.tolist() == dist.local_nnz().tolist()
        assert report.total_nnz == skewed.nnz
        assert report.partitioner == "nnz-balanced"

    def test_empty_rank_blocks_are_fine(self):
        # all nonzeros in one corner: most ranks own empty blocks
        coo = CooTensor(np.array([[0, 0, 0], [0, 0, 1]]), np.ones(2), (8, 8, 8))
        dist = DistSparseTensor.from_coo(coo, GRID, "uniform")
        assert int((dist.local_nnz() == 0).sum()) == GRID.size - 1
        assert np.allclose(dist.to_dense(), coo.to_dense())

    def test_rejects_wrong_inputs(self, skewed):
        with pytest.raises(TypeError, match="CooTensor"):
            DistSparseTensor.from_coo(skewed.to_dense(), GRID)
        with pytest.raises(ValueError, match="order"):
            DistSparseTensor.from_coo(skewed, ProcessorGrid((2, 2)))
        partition = make_partition("uniform", skewed, GRID)
        blocks = {0: skewed}
        with pytest.raises(ValueError, match="every rank"):
            DistSparseTensor(blocks, skewed.shape, GRID, partition)

    def test_explicit_partition_object(self, skewed):
        partition = make_partition("nnz-balanced", skewed, GRID)
        dist = DistSparseTensor.from_coo(skewed, GRID, partitioner=partition)
        assert dist.partition is partition


class TestDistributedFactorPartition:
    def test_non_uniform_blocks_round_trip(self):
        matrix = np.arange(12.0).reshape(6, 2)
        part = ModePartition(6, [0, 1, 6])
        factor = DistributedFactor.from_global(matrix, 0, ProcessorGrid((2, 1)), part)
        assert factor.block_rows == 5
        assert factor.block(0)[1:].sum() == 0.0  # padded rows stay zero
        assert np.allclose(factor.to_global(), matrix)
        g = factor.gram()
        assert np.allclose(g, matrix.T @ matrix)

    def test_permuted_blocks_round_trip(self):
        matrix = np.arange(8.0).reshape(4, 2)
        part = ModePartition(4, [0, 2, 4], permutation=np.array([3, 1, 0, 2]))
        factor = DistributedFactor.from_global(matrix, 0, ProcessorGrid((2, 1)), part)
        assert np.allclose(factor.to_global(), matrix)
        # position order: inverse permutation maps positions [0..3] -> rows [2,1,3,0]
        assert np.allclose(factor.padded_global(), matrix[[2, 1, 3, 0]])

    def test_partition_extent_mismatch(self):
        with pytest.raises(ValueError, match="partition covers"):
            DistributedFactor.from_global(
                np.zeros((5, 2)), 0, ProcessorGrid((2, 1)), ModePartition(4, [0, 2, 4])
            )


class TestSparseParallelSweep:
    """A multi-rank sparse CP-ALS sweep must match the single-rank oracle."""

    @pytest.mark.parametrize("kind", available_partitioners())
    @pytest.mark.parametrize("engine", ["naive", "dt", "msdt"])
    def test_matches_single_rank_oracle(self, kind, engine):
        tensor = sparse_low_rank_tensor((12, 10, 8), rank=3, density=0.3,
                                        noise=0.1, seed=5)
        rank = 4
        init = init_factors(tensor.shape, rank, seed=11, method="uniform")
        oracle = cp_als(tensor,
                        ALSOptions(rank=rank, n_sweeps=3, tol=0.0, mttkrp="naive"),
                        initial_factors=[f.copy() for f in init])
        result = parallel_cp_als(tensor,
                                 ParallelOptions(rank=rank, grid=GRID, n_sweeps=3,
                                                 tol=0.0, mttkrp=engine,
                                                 partitioner=kind),
                                 initial_factors=[f.copy() for f in init],
                                 partition_seed=13)
        for ours, ref in zip(result.factors, oracle.factors):
            assert np.max(np.abs(ours - ref)) < 1e-10
        assert result.residual == pytest.approx(oracle.residual, abs=1e-10)
        assert result.options["partitioner"] == kind

    def test_accepts_predistributed_tensor(self):
        tensor = sparse_low_rank_tensor((10, 9, 8), rank=2, density=0.2, seed=2)
        dist = DistSparseTensor.from_coo(tensor, GRID, "nnz-balanced")
        init = init_factors(tensor.shape, 3, seed=4, method="uniform")
        a = parallel_cp_als(dist,
                            ParallelOptions(rank=3, grid=GRID, n_sweeps=2, tol=0.0),
                            initial_factors=[f.copy() for f in init])
        b = parallel_cp_als(tensor,
                            ParallelOptions(rank=3, grid=GRID, n_sweeps=2, tol=0.0,
                                            partitioner="nnz-balanced"),
                            initial_factors=[f.copy() for f in init])
        for fa, fb in zip(a.factors, b.factors):
            assert np.allclose(fa, fb, atol=1e-12)

    def test_grid_mismatch_raises(self):
        tensor = sparse_low_rank_tensor((6, 6, 6), rank=2, density=0.3, seed=0)
        dist = DistSparseTensor.from_coo(tensor, GRID)
        with pytest.raises(ValueError, match="different grid"):
            parallel_cp_als(dist,
                            ParallelOptions(rank=2, grid=ProcessorGrid((2, 2, 1)),
                                            n_sweeps=1))

    @pytest.mark.parametrize("kind", available_partitioners())
    def test_parallel_pp_accepts_sparse_input(self, kind):
        """Regression: the PP deltas must inherit the factors' partition —
        a skewed tensor makes the nnz-balanced padded heights differ from the
        uniform ``ceil(s/I)``, which used to crash the PP phase."""
        from repro.core.parallel_pp_cp_als import parallel_pp_cp_als

        tensor = sparse_skewed_count_tensor((20, 20, 20), 0.05, alpha=1.5, seed=0)
        result = parallel_pp_cp_als(tensor,
                                    ParallelPPOptions(rank=4, grid=(2, 2, 2),
                                                      n_sweeps=6, tol=0.0, pp_tol=0.5,
                                                      seed=0, partitioner=kind),
                                    partition_seed=1)
        assert result.n_sweeps == 6
        # both PP phases actually ran on the sparse blocks
        assert {"als", "pp-init", "pp-approx"} <= {s.sweep_type for s in result.sweeps}

    def test_skewed_acceptance_scenario(self):
        """nnz-balanced <= 1.5x where uniform blocking exceeds 3x (ISSUE 4)."""
        tensor = sparse_skewed_count_tensor((200, 200, 200), 0.01, alpha=1.1, seed=0)
        uniform = make_partition("uniform", tensor, GRID).report(tensor)
        balanced = make_partition("nnz-balanced", tensor, GRID).report(tensor)
        assert uniform.imbalance > 3.0
        assert balanced.imbalance <= 1.5
