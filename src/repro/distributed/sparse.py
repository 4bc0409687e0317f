"""Sparse tensors distributed over a processor grid.

A :class:`DistSparseTensor` partitions a :class:`~repro.sparse.CooTensor`
over an order-``N`` :class:`~repro.grid.processor_grid.ProcessorGrid`: each
rank owns the COO block of nonzeros selected by the per-mode boundaries of a
:class:`~repro.grid.balance.TensorPartition`.  Local blocks share the uniform
padded shape :attr:`~repro.grid.balance.TensorPartition.padded_extents` (the
sparse analogue of the paper's zero-padded dense blocks), so every collective
of the parallel CP-ALS sweep keeps the dense path's uniform payloads while
local MTTKRP work scales with the block's own nonzero count.

The blocks are contiguous, as for the dense
:class:`~repro.distributed.dist_tensor.DistributedTensor`, but their
boundaries need not be uniform: the ``"nnz-balanced"`` partitioner (the
default of :meth:`DistSparseTensor.from_coo`) and the ``"joint"`` one size
blocks from the nonzero histograms so per-rank work is even on skewed
real-world tensors.  The chosen layout is summarized by
:meth:`DistSparseTensor.report`.

Example
-------
>>> import numpy as np
>>> from repro.distributed import DistSparseTensor
>>> from repro.grid import ProcessorGrid
>>> from repro.sparse import CooTensor
>>> coo = CooTensor(np.array([[0, 0], [0, 1], [0, 2], [2, 1]]), np.ones(4), (3, 4))
>>> dist = DistSparseTensor.from_coo(coo, ProcessorGrid((2, 1)), partitioner="nnz-balanced")
>>> dist.local_nnz().tolist()
[3, 1]
>>> bool(np.allclose(dist.to_dense(), coo.to_dense()))
True
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.grid.balance import PartitionReport, TensorPartition, make_partition
from repro.grid.processor_grid import ProcessorGrid
from repro.sparse.coo import CooTensor
from repro.sparse.ordering import lex_order

__all__ = ["DistSparseTensor"]


class DistSparseTensor:
    """A sparse COO tensor block-distributed over a :class:`ProcessorGrid`."""

    def __init__(self, blocks: Dict[int, CooTensor], partition: TensorPartition):
        grid = partition.grid
        if set(blocks) != set(range(grid.size)):
            raise ValueError("blocks must be provided for every rank")
        local_shape = partition.padded_extents
        for rank, block in blocks.items():
            if not isinstance(block, CooTensor):
                raise TypeError(
                    f"block of rank {rank} must be a CooTensor, got {type(block).__name__}"
                )
            if block.shape != local_shape:
                raise ValueError(
                    f"block of rank {rank} has shape {block.shape}, expected {local_shape}"
                )
        self.grid = grid
        self.global_shape = partition.global_shape
        self.partition = partition
        self.local_shape = local_shape
        self._blocks = dict(blocks)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        tensor: CooTensor,
        grid: ProcessorGrid,
        partitioner: str | TensorPartition = "nnz-balanced",
    ) -> "DistSparseTensor":
        """Distribute ``tensor`` over ``grid`` with the named partitioner.

        ``partitioner`` is a name accepted by
        :func:`repro.grid.balance.make_partition` (``"uniform"``,
        ``"nnz-balanced"``, ``"joint"``) or an explicit
        :class:`~repro.grid.balance.TensorPartition` built for ``grid``.

        Example
        -------
        >>> import numpy as np
        >>> from repro.grid import ProcessorGrid
        >>> from repro.sparse import CooTensor
        >>> coo = CooTensor(np.array([[0, 0], [1, 1]]), np.ones(2), (2, 2))
        >>> DistSparseTensor.from_coo(coo, ProcessorGrid((2, 1))).nnz
        2
        """
        if not isinstance(tensor, CooTensor):
            raise TypeError(
                f"from_coo expects a CooTensor, got {type(tensor).__name__}"
            )
        if isinstance(partitioner, TensorPartition):
            partition = partitioner
            if partition.grid != grid or partition.global_shape != tensor.shape:
                raise ValueError(
                    f"partition covers shape {partition.global_shape} on grid "
                    f"{partition.grid.dims}, tensor has shape {tensor.shape} on "
                    f"grid {grid.dims}"
                )
        else:
            partition = make_partition(partitioner, tensor, grid)
        ranks, local_indices = partition.assign(tensor.indices)
        local_shape = partition.padded_extents
        # stable: each block keeps the canonical order of its nonzeros, and
        # contiguous blocks map slices monotonically, so every block is sorted
        order, _ = lex_order([ranks], [grid.size])
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(ranks, minlength=grid.size))))
        blocks: Dict[int, CooTensor] = {}
        for proc in grid.ranks():
            sel = slice(bounds[proc], bounds[proc + 1])
            if order is not None:
                sel = order[sel]
            blocks[proc] = CooTensor(
                local_indices[sel], tensor.values[sel], local_shape,
                dtype=tensor.dtype,
            )
        return cls(blocks, partition)

    # -- access ---------------------------------------------------------------
    @property
    def order(self) -> int:
        """Tensor order ``N`` (equals the grid order)."""
        return len(self.global_shape)

    @property
    def nnz(self) -> int:
        """Total number of nonzeros across all ranks."""
        return int(sum(block.nnz for block in self._blocks.values()))

    @property
    def dtype(self) -> np.dtype:
        return self._blocks[0].dtype

    def local_block(self, rank: int) -> CooTensor:
        """The (padded-extent) sparse block owned by ``rank``."""
        return self._blocks[rank]

    def local_nnz(self) -> np.ndarray:
        """Per-rank nonzero counts, in rank order."""
        return np.array([self._blocks[r].nnz for r in self.grid.ranks()],
                        dtype=np.int64)

    def local_nbytes(self, rank: int) -> int:
        """Bytes of one rank's COO block (indices plus values)."""
        block = self._blocks[rank]
        return int(block.indices.nbytes + block.values.nbytes)

    def report(self) -> PartitionReport:
        """Load-balance report of the realized distribution.

        Example
        -------
        >>> import numpy as np
        >>> from repro.grid import ProcessorGrid
        >>> from repro.sparse import CooTensor
        >>> coo = CooTensor(np.array([[0, 0], [1, 0]]), np.ones(2), (2, 2))
        >>> dist = DistSparseTensor.from_coo(coo, ProcessorGrid((2, 1)), "uniform")
        >>> dist.report().per_rank_nnz.tolist()
        [1, 1]
        """
        return PartitionReport(
            partitioner=self.partition.name,
            grid_dims=self.grid.dims,
            total_nnz=self.nnz,
            per_rank_nnz=self.local_nnz(),
            padded_extents=self.partition.padded_extents,
            mode_boundaries=[p.boundaries.copy() for p in self.partition.modes],
        )

    # -- reassembly ------------------------------------------------------------
    def to_coo(self) -> CooTensor:
        """Reassemble the global sparse tensor (shifting block offsets back)."""
        all_indices = []
        all_values = []
        for proc in self.grid.ranks():
            block = self._blocks[proc]
            if block.nnz == 0:
                continue
            starts = [s.start for s in self.partition.block_slices(proc)]
            all_indices.append(block.indices + np.array(starts, dtype=np.int64))
            all_values.append(block.values)
        if not all_indices:
            empty = np.zeros((0, self.order), dtype=np.int64)
            return CooTensor(empty, np.zeros(0), self.global_shape, dtype=self.dtype)
        return CooTensor(
            np.concatenate(all_indices, axis=0),
            np.concatenate(all_values),
            self.global_shape,
            dtype=self.dtype,
        )

    def to_dense(self) -> np.ndarray:
        """Materialize the dense global tensor (small sizes only)."""
        return self.to_coo().to_dense()

    def norm(self) -> float:
        """Frobenius norm (blocks partition the nonzeros, so sums are exact)."""
        total = 0.0
        for block in self._blocks.values():
            total += float(block.norm()) ** 2
        return float(np.sqrt(total))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistSparseTensor(shape={self.global_shape}, grid={self.grid.dims}, "
            f"nnz={self.nnz}, partitioner={self.partition.name!r}, "
            f"local={self.local_shape})"
        )
