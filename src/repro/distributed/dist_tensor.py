"""Block-distributed dense tensors over a processor grid.

Every processor owns the block of the tensor selected by its grid coordinate
in the uniform :class:`~repro.grid.balance.TensorPartition`
(``make_partition("uniform", ...)``), zero-padded so all local blocks share
the shape ``(ceil(s_1/I_1), ..., ceil(s_N/I_N))`` exactly as described in
Section II-A of the paper.  Padding with zeros leaves all MTTKRP results
unchanged, so the parallel algorithms can treat every block uniformly.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.grid.balance import TensorPartition, make_partition
from repro.grid.processor_grid import ProcessorGrid
from repro.utils.validation import check_dense_tensor

__all__ = ["DistributedTensor"]


class DistributedTensor:
    """A dense tensor block-distributed over a :class:`ProcessorGrid`.

    The blocks are the contiguous ones of :attr:`partition`, the same kind of
    object the sparse counterpart
    :class:`repro.distributed.sparse.DistSparseTensor` carries.

    Example
    -------
    >>> import numpy as np
    >>> from repro.grid import ProcessorGrid
    >>> dist = DistributedTensor.from_dense(np.arange(12.0).reshape(4, 3),
    ...                                     ProcessorGrid((2, 1)))
    >>> dist.local_shape, dist.partition.name
    ((2, 3), 'uniform')
    >>> dist.local_block(1).tolist()
    [[6.0, 7.0, 8.0], [9.0, 10.0, 11.0]]
    >>> bool(np.allclose(dist.to_dense(), np.arange(12.0).reshape(4, 3)))
    True
    """

    def __init__(self, blocks: Dict[int, np.ndarray], partition: TensorPartition):
        self.partition = partition
        self.grid = partition.grid
        self.global_shape = partition.global_shape
        self.local_shape = partition.padded_extents
        if set(blocks) != set(range(self.grid.size)):
            raise ValueError("blocks must be provided for every rank")
        for rank, block in blocks.items():
            if block.shape != self.local_shape:
                raise ValueError(
                    f"block of rank {rank} has shape {block.shape}, expected {self.local_shape}"
                )
        self._blocks = {rank: np.ascontiguousarray(block, dtype=np.float64)
                        for rank, block in blocks.items()}

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_dense(cls, tensor: np.ndarray, grid: ProcessorGrid) -> "DistributedTensor":
        """Distribute a dense tensor over ``grid`` (zero-padding partial blocks)."""
        tensor = check_dense_tensor(tensor, min_order=1)
        partition = make_partition("uniform", tensor, grid)
        blocks: Dict[int, np.ndarray] = {}
        for rank in grid.ranks():
            piece = tensor[partition.block_slices(rank)]
            block = np.zeros(partition.padded_extents, dtype=np.float64)
            block[tuple(slice(0, p) for p in piece.shape)] = piece
            blocks[rank] = block
        return cls(blocks, partition)

    # -- access ---------------------------------------------------------------
    @property
    def order(self) -> int:
        """Tensor order ``N`` (equals the grid order)."""
        return len(self.global_shape)

    def local_block(self, rank: int) -> np.ndarray:
        """The (padded) tensor block owned by ``rank``."""
        return self._blocks[rank]

    def local_nbytes(self) -> int:
        """Bytes of one local block."""
        return int(np.prod(self.local_shape)) * 8

    def to_dense(self) -> np.ndarray:
        """Reassemble the global tensor (dropping padding)."""
        out = np.zeros(self.global_shape, dtype=np.float64)
        for rank in self.grid.ranks():
            slices = self.partition.block_slices(rank)
            out[slices] = self._blocks[rank][tuple(slice(0, s.stop - s.start)
                                                   for s in slices)]
        return out

    def norm(self) -> float:
        """Frobenius norm (padding contributes nothing)."""
        total = 0.0
        for block in self._blocks.values():
            total += float(np.dot(block.ravel(), block.ravel()))
        return float(np.sqrt(total))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedTensor(shape={self.global_shape}, grid={self.grid.dims}, "
            f"local={self.local_shape})"
        )
