"""Hypothesis properties of the grid partitioners (ISSUE 4).

For every partitioner kind and random sparse tensor / grid combination:

* every nonzero lands on exactly one rank (the rank map is a function, and
  reassembling the distributed blocks recovers the tensor exactly),
* every 1-d partition covers its mode with contiguous blocks (boundaries span
  ``[0, s]``, the block map never leaves the grid dimension, the blocks' rows
  tile the index range in order),
* the nnz-balanced partitioner never does worse than uniform blocking on
  skewed synthetic tensors (its whole reason to exist),
* a dense tensor and its sparse twin under ``uniform`` get the same blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data.sparse_synthetic import sparse_skewed_count_tensor
from repro.distributed import DistributedTensor, DistSparseTensor
from repro.grid import ProcessorGrid, available_partitioners, make_partition

pytestmark = pytest.mark.property

KINDS = tuple(available_partitioners())


def _draw_instance(data, max_order=4, max_dim=12, max_grid=3):
    order = data.draw(st.integers(2, max_order), label="order")
    shape = tuple(
        data.draw(st.integers(1, max_dim), label=f"dim{i}") for i in range(order)
    )
    grid_dims = tuple(
        data.draw(st.integers(1, max_grid), label=f"grid{i}") for i in range(order)
    )
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape, dtype=np.int64))
    nnz = data.draw(st.integers(0, min(size, 200)), label="nnz")
    linear = rng.choice(size, size=nnz, replace=False)
    indices = np.column_stack(np.unravel_index(linear, shape)).astype(np.int64)
    values = rng.standard_normal(nnz) + 2.0  # bounded away from 0
    from repro.sparse import CooTensor

    return CooTensor(indices.reshape(nnz, order), values, shape), ProcessorGrid(grid_dims)


@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_every_nonzero_lands_on_exactly_one_rank(data, kind):
    tensor, grid = _draw_instance(data)
    partition = make_partition(kind, tensor, grid)
    ranks = partition.rank_of(tensor.indices)
    assert ranks.shape == (tensor.nnz,)
    assert ((ranks >= 0) & (ranks < grid.size)).all()
    # the per-rank nonzero counts partition the total: nothing dropped or doubled
    assert int(np.bincount(ranks, minlength=grid.size).sum()) == tensor.nnz
    # and the distributed blocks reassemble the tensor exactly
    dist = DistSparseTensor.from_coo(tensor, grid, partitioner=partition)
    back = dist.to_coo()
    assert np.array_equal(back.indices, tensor.indices)
    assert np.allclose(back.values, tensor.values)
    assert int(dist.local_nnz().sum()) == tensor.nnz


@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_partition_boundaries_cover_each_mode(data, kind):
    tensor, grid = _draw_instance(data)
    partition = make_partition(kind, tensor, grid)
    for mode, part in enumerate(partition.modes):
        assert part.extent == tensor.shape[mode]
        assert part.n_blocks == grid.dims[mode]
        assert part.boundaries[0] == 0
        assert part.boundaries[-1] == part.extent
        assert (np.diff(part.boundaries) >= 0).all()
        assert int(part.widths().sum()) == part.extent
        assert 1 <= part.block_rows <= part.extent
        # the block map agrees with the boundary intervals for every index
        all_idx = np.arange(part.extent)
        blocks = part.block_of(all_idx)
        assert ((blocks >= 0) & (blocks < part.n_blocks)).all()
        offsets = part.local_offset(all_idx)
        assert ((offsets >= 0) & (offsets < part.block_rows)).all()
        # the blocks' rows, block after block, are the mode's indices in order
        owned = np.concatenate(
            [part.global_rows_of_block(b) for b in range(part.n_blocks)]
        )
        assert np.array_equal(owned, all_idx)


@given(data=st.data())
def test_dense_and_sparse_uniform_layouts_agree(data):
    tensor, grid = _draw_instance(data)
    dense = DistributedTensor.from_dense(tensor.to_dense(), grid)
    sparse = DistSparseTensor.from_coo(tensor, grid, "uniform")
    assert dense.local_shape == sparse.local_shape
    for rank in grid.ranks():
        assert np.array_equal(sparse.local_block(rank).to_dense(),
                              dense.local_block(rank))
    assert np.array_equal(dense.to_dense(), tensor.to_dense())


@given(
    alpha=st.sampled_from([0.8, 1.1, 1.5]),
    grid_dims=st.sampled_from([(2, 2, 2), (2, 2, 4), (4, 2, 1)]),
    seed=st.integers(0, 2**31 - 1),
)
def test_nnz_balanced_beats_uniform_on_skew(alpha, grid_dims, seed):
    tensor = sparse_skewed_count_tensor((30, 30, 30), 0.01, alpha=alpha, seed=seed)
    grid = ProcessorGrid(grid_dims)
    uniform = make_partition("uniform", tensor, grid).report(tensor)
    balanced = make_partition("nnz-balanced", tensor, grid).report(tensor)
    assert balanced.imbalance <= uniform.imbalance * (1.0 + 1e-12)
