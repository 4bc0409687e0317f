"""Sparse tensor backend: COO format plus sparse MTTKRP kernels.

Opens the sparse real-world workload class (the SPLATT-style sparse-MTTKRP
regime the paper's cost models reference): :class:`CooTensor` is accepted
transparently by :func:`repro.core.cp_als.cp_als`,
:func:`repro.core.pp_cp_als.pp_cp_als`, :func:`repro.core.multi_start.multi_start`
and :func:`repro.trees.registry.make_provider` through the
:class:`repro.backend.TensorBackend` protocol.
"""

from repro.sparse.coo import CooTensor
from repro.sparse.csf import (
    CsfLevel,
    CsfTensor,
    SegmentSum,
    csf_cache_stats,
    reset_csf_cache_stats,
)
from repro.sparse.mttkrp import DEFAULT_BLOCK_SIZE, sparse_mttkrp, sparse_partial_mttkrp

__all__ = [
    "CooTensor",
    "CsfLevel",
    "CsfTensor",
    "SegmentSum",
    "csf_cache_stats",
    "reset_csf_cache_stats",
    "sparse_mttkrp",
    "sparse_partial_mttkrp",
    "DEFAULT_BLOCK_SIZE",
]
