"""Logical processor grids and the contiguous block layout of distributed tensors.

The parallel algorithms distribute an order-``N`` tensor over an order-``N``
processor grid (Section II-E of the paper).  :class:`ProcessorGrid` handles
rank <-> coordinate arithmetic and the "slice" groups used by the per-mode
collectives.  Every mode of a distributed tensor, dense or sparse, is cut
into contiguous, uniformly padded blocks: :mod:`repro.grid.balance` chooses
the cuts (the paper's uniform blocks, or nnz-balanced / joint cuts for skewed
sparse tensors) and :mod:`repro.grid.distribution` holds the padded block
height and the even row split of the collectives.
"""

from repro.grid.processor_grid import ProcessorGrid
from repro.grid.distribution import padded_block_size, split_rows_evenly
from repro.grid.balance import (
    ModePartition,
    PartitionReport,
    TensorPartition,
    available_partitioners,
    make_partition,
)

__all__ = [
    "ProcessorGrid",
    "padded_block_size",
    "split_rows_evenly",
    "ModePartition",
    "PartitionReport",
    "TensorPartition",
    "available_partitioners",
    "make_partition",
]
