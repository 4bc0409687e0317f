"""Distributed (block-partitioned) tensors and factor matrices.

These classes implement the data layout of Algorithm 3 in the paper: the
order-``N`` input tensor is block-distributed over an order-``N`` processor
grid, and each factor matrix ``A^(i)`` is stored as one row block per value of
the ``i``-th grid coordinate — the block every processor in the corresponding
grid slice holds redundantly after the mode-``i`` All-Gather.

Both tensor classes cut every mode into contiguous blocks at the boundaries
of a :class:`~repro.grid.balance.TensorPartition`, padded to uniform extents,
and each factor's rows follow its mode's cuts:

* :class:`DistributedTensor` — dense blocks of the uniform partition
  (Section II-A of the paper).
* :class:`DistSparseTensor` — sparse COO blocks of any partition of
  :mod:`repro.grid.balance` (uniform, nnz-balanced, joint); the padded
  extents keep the collectives of the sweep identical to the dense path.

:class:`~repro.distributed.rank.RankKernels` holds one rank's local kernels
(MTTKRP, PP-init, PP contribution).  :mod:`repro.distributed.runtime` puts the
ranks on a machine: a :class:`~repro.distributed.runtime.LocalRuntime` holds
one ``RankKernels`` per rank in the calling process, a
:class:`~repro.distributed.runtime.ProcessRuntime` mirrors the distributed
factor blocks into shared-memory panels and drives one
:class:`~repro.distributed.runtime.RemoteRank` per rank — a worker of a
:class:`~repro.comm.procs.ProcessMachine` running its own ``RankKernels``.
"""

import importlib

#: the public names and their defining modules, imported on first use
#: (PEP 562) so that a process-machine worker, which needs only
#: :mod:`repro.distributed.rank`, loads no other submodule
_PUBLIC = {
    "DistributedTensor": "repro.distributed.dist_tensor",
    "DistributedFactor": "repro.distributed.dist_factor",
    "DistSparseTensor": "repro.distributed.sparse",
    "RankKernels": "repro.distributed.rank",
    "LocalRuntime": "repro.distributed.runtime",
    "ProcessRuntime": "repro.distributed.runtime",
    "RemoteRank": "repro.distributed.runtime",
}

__all__ = list(_PUBLIC)


def __getattr__(name: str):
    try:
        module = _PUBLIC[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.distributed' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
