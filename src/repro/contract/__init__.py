"""The process-wide einsum plan cache.

The einsums that remain in the package — the COO ``naive`` MTTKRP, the sparse
fiber step's row scaling and the dense reference kernels of
:mod:`repro.tensor` (the ``naive``/``unfolding`` MTTKRPs, ``ttm``, ``ttv``,
``partial_mttkrp``) — run on one :class:`~repro.contract.engine.ContractionEngine`
per process, so the ``np.einsum_path`` search runs once per (spec, shapes,
dtypes) key instead of once per call.  There is nothing to inject: every
kernel calls :func:`contract`.  The dense dimension trees, the PP operators
and corrections, Gram matrices and solves are BLAS calls and never reach it.
"""

from repro.contract.engine import (
    ContractionEngine,
    contract,
    default_engine,
    plan,
    reset_default_engine,
    subscript_letters,
)

__all__ = [
    "ContractionEngine",
    "contract",
    "default_engine",
    "plan",
    "reset_default_engine",
    "subscript_letters",
]
