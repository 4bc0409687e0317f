"""Tests for the block-distributed dense tensor."""

import numpy as np
import pytest

from repro.distributed.dist_tensor import DistributedTensor
from repro.distributed.sparse import DistSparseTensor
from repro.grid.balance import make_partition
from repro.grid.distribution import padded_block_size
from repro.grid.processor_grid import ProcessorGrid
from repro.sparse import CooTensor

#: ragged shapes: partial trailing blocks, and empty ones where ``I * ceil(s /
#: I)`` overshoots ``s`` by a whole block
RAGGED = [
    ((10, 7, 5), (4, 3, 2)),
    ((9, 7, 5), (4, 3, 4)),
    ((5, 3), (4, 7)),
    ((1, 16), (1, 4)),
    ((3, 5, 2, 4), (3, 2, 3, 1)),
]


def _papers_block(tensor, dims, coord):
    """The block Section II-A of the paper gives grid coordinate ``coord``:
    rows ``[min(x b, s), min((x + 1) b, s))`` of each mode, ``b = ceil(s /
    I)``, zero-padded to ``b`` rows."""
    heights = [padded_block_size(s, d) for s, d in zip(tensor.shape, dims)]
    slices = tuple(slice(min(x * b, s), min((x + 1) * b, s))
                   for x, b, s in zip(coord, heights, tensor.shape))
    piece = tensor[slices]
    block = np.zeros(heights)
    block[tuple(slice(0, e) for e in piece.shape)] = piece
    return block


class TestDistribution:
    def test_roundtrip_divisible(self, rng):
        tensor = rng.random((4, 6, 8))
        grid = ProcessorGrid((2, 3, 2))
        dist = DistributedTensor.from_dense(tensor, grid)
        assert np.allclose(dist.to_dense(), tensor)

    def test_roundtrip_with_padding(self, rng):
        tensor = rng.random((5, 7, 3))
        grid = ProcessorGrid((2, 3, 2))
        dist = DistributedTensor.from_dense(tensor, grid)
        assert dist.local_shape == (3, 3, 2)
        assert np.allclose(dist.to_dense(), tensor)

    def test_local_blocks_uniform_shape(self, rng):
        tensor = rng.random((5, 5, 5))
        grid = ProcessorGrid((2, 2, 1))
        dist = DistributedTensor.from_dense(tensor, grid)
        for rank in grid.ranks():
            assert dist.local_block(rank).shape == dist.local_shape

    def test_padded_regions_are_zero(self, rng):
        tensor = rng.random((3, 3))
        grid = ProcessorGrid((2, 2))
        dist = DistributedTensor.from_dense(tensor, grid)
        # rank (1, 1) owns rows 2.. and cols 2.. -> only element (2,2) real
        block = dist.local_block(grid.rank((1, 1)))
        assert block[0, 0] == tensor[2, 2]
        assert block[1, 1] == 0.0

    def test_norm_matches_dense(self, rng):
        tensor = rng.random((5, 6, 7))
        grid = ProcessorGrid((2, 2, 2))
        dist = DistributedTensor.from_dense(tensor, grid)
        assert np.isclose(dist.norm(), np.linalg.norm(tensor))

    def test_single_processor_block_is_tensor(self, rng):
        tensor = rng.random((4, 5))
        dist = DistributedTensor.from_dense(tensor, ProcessorGrid((1, 1)))
        assert np.allclose(dist.local_block(0), tensor)

    def test_local_nbytes(self, rng):
        tensor = rng.random((4, 4))
        dist = DistributedTensor.from_dense(tensor, ProcessorGrid((2, 2)))
        assert dist.local_nbytes() == 4 * 8

    def test_order_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            DistributedTensor.from_dense(rng.random((4, 4)), ProcessorGrid((2, 2, 2)))

    def test_constructor_validates_blocks(self, rng):
        partition = make_partition("uniform", np.zeros(4), ProcessorGrid((2,)))
        with pytest.raises(ValueError):
            DistributedTensor({0: np.zeros((2,))}, partition)  # missing rank 1
        with pytest.raises(ValueError):
            DistributedTensor({0: np.zeros((3,)), 1: np.zeros((2,))}, partition)


class TestUniformPartition:
    """A dense tensor is cut by ``make_partition("uniform", ...)``: the
    paper's padded blocks, the layout a sparse tensor's uniform partition
    gives too."""

    @pytest.mark.parametrize("shape,dims", RAGGED)
    def test_ragged_shapes_cut_into_the_papers_padded_blocks(self, rng, shape, dims):
        tensor = rng.random(shape)
        grid = ProcessorGrid(dims)
        dist = DistributedTensor.from_dense(tensor, grid)
        assert dist.partition.name == "uniform"
        assert dist.local_shape == tuple(
            padded_block_size(s, d) for s, d in zip(shape, dims))
        for rank in grid.ranks():
            expected = _papers_block(tensor, dims, grid.coordinate(rank))
            assert np.array_equal(dist.local_block(rank), expected)
        assert np.array_equal(dist.to_dense(), tensor)

    @pytest.mark.parametrize("shape,dims", RAGGED)
    def test_sparse_twin_gets_the_same_blocks(self, rng, shape, dims):
        tensor = rng.random(shape) * (rng.random(shape) < 0.5)
        grid = ProcessorGrid(dims)
        dense = DistributedTensor.from_dense(tensor, grid)
        sparse = DistSparseTensor.from_coo(CooTensor.from_dense(tensor), grid,
                                           "uniform")
        assert [p.boundaries.tolist() for p in sparse.partition.modes] == \
            [p.boundaries.tolist() for p in dense.partition.modes]
        for rank in grid.ranks():
            assert np.array_equal(sparse.local_block(rank).to_dense(),
                                  dense.local_block(rank))
