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

from repro.distributed.dist_tensor import DistributedTensor
from repro.distributed.dist_factor import DistributedFactor
from repro.distributed.sparse import DistSparseTensor
from repro.distributed.rank import RankKernels
from repro.distributed.runtime import LocalRuntime, ProcessRuntime, RemoteRank

__all__ = [
    "DistributedTensor",
    "DistributedFactor",
    "DistSparseTensor",
    "RankKernels",
    "LocalRuntime",
    "ProcessRuntime",
    "RemoteRank",
]
