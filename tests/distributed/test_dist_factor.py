"""Tests for the row-blocked distributed factor matrices."""

import numpy as np
import pytest

from repro.data.sparse_synthetic import sparse_skewed_count_tensor
from repro.distributed.dist_factor import DistributedFactor
from repro.grid.balance import available_partitioners, make_partition, uniform_partition
from repro.grid.processor_grid import ProcessorGrid


@pytest.fixture
def grid() -> ProcessorGrid:
    return ProcessorGrid((2, 3))


def _split(matrix, mode, grid):
    """``matrix`` in the paper's uniform row blocks of grid dimension ``mode``."""
    partition = uniform_partition(matrix.shape[0], grid.dims[mode])
    return DistributedFactor.from_global(matrix, mode, grid, partition)


class TestDistributedFactor:
    def test_roundtrip_divisible(self, rng, grid):
        matrix = rng.random((6, 4))
        dist = _split(matrix, 1, grid)
        assert dist.block_rows == 2
        assert np.allclose(dist.to_global(), matrix)

    def test_roundtrip_with_padding(self, rng, grid):
        matrix = rng.random((5, 3))
        dist = _split(matrix, 0, grid)
        assert dist.block_rows == 3
        assert np.allclose(dist.to_global(), matrix)
        assert np.all(dist.block(1)[2:] == 0.0)

    def test_gram_ignores_padding(self, rng, grid):
        matrix = rng.random((5, 3))
        dist = _split(matrix, 0, grid)
        assert np.allclose(dist.gram(), matrix.T @ matrix)

    def test_local_block_for_follows_grid_coordinate(self, rng, grid):
        matrix = rng.random((6, 2))
        dist = _split(matrix, 1, grid)
        for rank in grid.ranks():
            coord = grid.coordinate(rank)
            assert np.array_equal(dist.local_block_for(rank), dist.block(coord[1]))

    def test_set_block_replaces_rows(self, rng, grid):
        matrix = rng.random((6, 2))
        dist = _split(matrix, 1, grid)
        new_block = np.ones((2, 2))
        dist.set_block(0, new_block)
        assert np.allclose(dist.to_global()[:2], 1.0)

    def test_set_block_shape_mismatch_raises(self, rng, grid):
        dist = _split(rng.random((6, 2)), 1, grid)
        with pytest.raises(ValueError):
            dist.set_block(0, np.ones((3, 2)))

    def test_padded_global_shape(self, rng, grid):
        dist = _split(rng.random((5, 2)), 0, grid)
        assert dist.padded_global().shape == (6, 2)

    def test_copy_is_independent(self, rng, grid):
        dist = _split(rng.random((6, 2)), 1, grid)
        duplicate = dist.copy()
        duplicate.set_block(0, np.zeros((2, 2)))
        assert not np.allclose(dist.block(0), 0.0)

    def test_bad_mode_raises(self, rng, grid):
        with pytest.raises(ValueError):
            DistributedFactor.from_global(rng.random((6, 2)), 5, grid,
                                          uniform_partition(6, 2))

    def test_wrong_block_count_raises(self, rng, grid):
        with pytest.raises(ValueError):
            DistributedFactor(1, 2, grid, [np.zeros((2, 2))], uniform_partition(6, 3))

    def test_non_matrix_raises(self, rng, grid):
        with pytest.raises(ValueError):
            DistributedFactor.from_global(rng.random(6), 0, grid,
                                          uniform_partition(6, 2))


class TestPartitionRows:
    """Block ``x`` is a padded copy of the rows in the partition's ``x``-th
    interval, whichever partitioner cut it."""

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("kind", available_partitioners())
    def test_blocks_are_contiguous_rows_of_the_partition(self, rng, kind, mode):
        tensor = sparse_skewed_count_tensor((20, 16, 12), 0.05, alpha=1.2, seed=3)
        grid = ProcessorGrid((2, 3, 2))
        part = make_partition(kind, tensor, grid).modes[mode]
        matrix = rng.random((tensor.shape[mode], 3))
        factor = DistributedFactor.from_global(matrix, mode, grid, part)
        assert factor.global_rows == tensor.shape[mode]
        for x in range(part.n_blocks):
            start, stop = part.block_range(x)
            block = factor.block(x)
            assert block.shape == (part.block_rows, 3)
            assert np.array_equal(block[: stop - start], matrix[start:stop])
            assert not block[stop - start:].any()
        assert np.array_equal(factor.to_global(), matrix)
        assert factor.copy().partition is part
