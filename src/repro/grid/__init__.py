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

import importlib

#: the public names and their defining modules, imported on first use
#: (PEP 562) so that importing one submodule loads no other
_PUBLIC = {
    "ProcessorGrid": "repro.grid.processor_grid",
    "padded_block_size": "repro.grid.distribution",
    "split_rows_evenly": "repro.grid.distribution",
    "ModePartition": "repro.grid.balance",
    "PartitionReport": "repro.grid.balance",
    "TensorPartition": "repro.grid.balance",
    "available_partitioners": "repro.grid.balance",
    "make_partition": "repro.grid.balance",
}

__all__ = list(_PUBLIC)


def __getattr__(name: str):
    try:
        module = _PUBLIC[name]
    except KeyError:
        raise AttributeError(f"module 'repro.grid' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
