"""Distributed CP factor matrices.

For mode ``i`` on a grid with ``I_i`` blocks along that mode, the factor
``A^(i)`` is stored as ``I_i`` row blocks of uniform (padded) height.  Block
``x`` is exactly the set of rows that every processor in the grid slice
``P^(i)(x, :)`` holds redundantly after the mode-``i`` All-Gather of
Algorithm 3; the :class:`DistributedFactor` stores it once and the parallel
drivers charge the replication cost through the simulated collectives.

The rows follow the tensor's layout: block ``x`` holds the contiguous rows
inside the ``x``-th boundary interval of the mode's
:class:`~repro.grid.balance.ModePartition` (the paper's uniform blocks of
height ``ceil(s_i / I_i)`` for a dense tensor, nnz-balanced or joint cuts for
a sparse one), padded to the widest interval so collective payloads stay
uniform.  Padded rows are identically zero and stay zero through the
normal-equation solves.

Example
-------
>>> import numpy as np
>>> from repro.distributed import DistributedFactor
>>> from repro.grid import ProcessorGrid
>>> from repro.grid.balance import uniform_partition
>>> factor = DistributedFactor.from_global(np.arange(6.0).reshape(3, 2), 0,
...                                        ProcessorGrid((2, 1)),
...                                        uniform_partition(3, 2))
>>> factor.block(0).shape, factor.block(1).shape   # padded to ceil(3/2) rows
((2, 2), (2, 2))
>>> factor.to_global().tolist()
[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.grid.balance import ModePartition
from repro.grid.processor_grid import ProcessorGrid

__all__ = ["DistributedFactor"]


class DistributedFactor:
    """Row-blocked factor matrix for one tensor mode.

    Parameters
    ----------
    mode:
        Tensor mode this factor belongs to.
    rank:
        CP rank ``R`` (number of columns).
    grid:
        The processor grid; the factor has ``grid.dims[mode]`` row blocks.
    blocks:
        The row blocks, each of shape ``(partition.block_rows, rank)``.
    partition:
        The mode's :class:`~repro.grid.balance.ModePartition`: its extent is
        the number of true (unpadded) rows, its intervals the rows of each
        block.
    """

    def __init__(self, mode: int, rank: int, grid: ProcessorGrid,
                 blocks: Sequence[np.ndarray], partition: ModePartition):
        if not 0 <= mode < grid.order:
            raise ValueError(f"mode {mode} out of range for order-{grid.order} grid")
        if partition.n_blocks != grid.dims[mode]:
            raise ValueError(
                f"partition has {partition.n_blocks} blocks but grid dimension "
                f"{mode} is {grid.dims[mode]}"
            )
        self.mode = mode
        self.global_rows = partition.extent
        self.rank = int(rank)
        self.grid = grid
        self.partition = partition
        self.block_rows = partition.block_rows
        blocks = [np.ascontiguousarray(b, dtype=np.float64) for b in blocks]
        if len(blocks) != grid.dims[mode]:
            raise ValueError(
                f"expected {grid.dims[mode]} blocks for mode {mode}, got {len(blocks)}"
            )
        for b in blocks:
            if b.shape != (self.block_rows, self.rank):
                raise ValueError(
                    f"factor block has shape {b.shape}, expected {(self.block_rows, self.rank)}"
                )
        self._blocks = blocks

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_global(cls, matrix: np.ndarray, mode: int, grid: ProcessorGrid,
                    partition: ModePartition) -> "DistributedFactor":
        """Split a global ``(s_mode, R)`` factor into padded row blocks.

        Block ``x`` is a copy of the contiguous rows in the partition's
        ``x``-th interval, zero-padded to the widest interval.

        Example
        -------
        >>> import numpy as np
        >>> from repro.grid import ProcessorGrid
        >>> from repro.grid.balance import ModePartition
        >>> part = ModePartition(3, [0, 1, 3])   # skewed: blocks of 1 and 2 rows
        >>> factor = DistributedFactor.from_global(np.arange(6.0).reshape(3, 2),
        ...                                        0, ProcessorGrid((2, 1)), part)
        >>> factor.block(0).tolist()             # one true row, one padded row
        [[0.0, 1.0], [0.0, 0.0]]
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("factor matrix must be 2-D")
        rows, rank = matrix.shape
        if rows != partition.extent:
            raise ValueError(
                f"partition covers {partition.extent} rows but the factor has {rows}"
            )
        blocks = []
        for idx in range(partition.n_blocks):
            start, stop = partition.block_range(idx)
            block = np.zeros((partition.block_rows, rank), dtype=np.float64)
            block[: stop - start] = matrix[start:stop]
            blocks.append(block)
        return cls(mode, rank, grid, blocks, partition)

    # -- access -----------------------------------------------------------------
    def block(self, block_index: int) -> np.ndarray:
        """Row block ``block_index`` (the block of grid coordinate value ``block_index``)."""
        return self._blocks[block_index]

    def set_block(self, block_index: int, value: np.ndarray) -> None:
        """Replace row block ``block_index`` (shape must stay ``(block_rows, R)``)."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.block_rows, self.rank):
            raise ValueError(
                f"block must have shape {(self.block_rows, self.rank)}, got {value.shape}"
            )
        self._blocks[block_index] = np.ascontiguousarray(value)

    def local_block_for(self, proc_rank: int) -> np.ndarray:
        """The block a given processor uses in its local MTTKRP."""
        coord = self.grid.coordinate(proc_rank)
        return self._blocks[coord[self.mode]]

    def to_global(self) -> np.ndarray:
        """Reassemble the global factor (dropping padded rows)."""
        out = np.zeros((self.global_rows, self.rank), dtype=np.float64)
        for idx, block in enumerate(self._blocks):
            start, stop = self.partition.block_range(idx)
            out[start:stop] = block[: stop - start]
        return out

    def padded_global(self) -> np.ndarray:
        """Concatenation of all blocks including padded rows."""
        return np.concatenate(self._blocks, axis=0)

    def gram(self) -> np.ndarray:
        """Gram matrix ``A^T A`` (padded rows are zero and contribute nothing).

        Example
        -------
        >>> import numpy as np
        >>> from repro.grid import ProcessorGrid
        >>> from repro.grid.balance import uniform_partition
        >>> factor = DistributedFactor.from_global(np.eye(3, 2), 0,
        ...                                        ProcessorGrid((2, 1)),
        ...                                        uniform_partition(3, 2))
        >>> factor.gram().tolist()
        [[1.0, 0.0], [0.0, 1.0]]
        """
        g = np.zeros((self.rank, self.rank))
        for b in self._blocks:
            g += b.T @ b
        return g

    def copy(self) -> "DistributedFactor":
        """Deep copy (fresh block arrays, shared grid/partition)."""
        return DistributedFactor(self.mode, self.rank, self.grid,
                                 [b.copy() for b in self._blocks], self.partition)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedFactor(mode={self.mode}, rows={self.global_rows}, rank={self.rank}, "
            f"blocks={len(self._blocks)}x{self.block_rows})"
        )
