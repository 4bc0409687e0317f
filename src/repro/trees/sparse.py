"""The recompute MTTKRP provider over the sparse COO backend.

:class:`SparseCooMTTKRP` is the sparse twin of the dense ``naive`` engine and
the oracle the sparse-vs-dense parity suite cross-checks the trees against:
a blockwise gather / Hadamard / scatter-add over the nonzeros
(:func:`repro.sparse.mttkrp.sparse_mttkrp`), ``O(nnz * R * N)`` per call with
a bounded workspace.  For non-primary output modes it caches a per-mode
nonzero ordering (one stable sort, built once — the tensor never changes) so
every block's scatter-add touches a short contiguous range of output rows
instead of all of them.

The amortizing ``dt``/``msdt`` engines over sparse inputs live in
:mod:`repro.trees.sparse_dt` (CSF-based semi-sparse dimension trees); the
registry dispatches all names per backend.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.mttkrp import sparse_mttkrp
from repro.sparse.ordering import lex_order
from repro.trees.base import MTTKRPProvider

__all__ = ["SparseCooMTTKRP"]


class SparseCooMTTKRP(MTTKRPProvider):
    """Recompute every sparse MTTKRP from scratch in ``O(nnz * R * N)``."""

    name = "naive"

    def __init__(self, tensor, factors, tracker=None):
        super().__init__(tensor, factors, tracker=tracker)
        # per-output-mode nonzero orderings: pattern-only, built lazily once
        self._mode_perms: dict[int, np.ndarray | None] = {}

    def _mode_perm(self, mode: int) -> np.ndarray | None:
        """Permutation making ``indices[:, mode]`` non-decreasing (None if it is).

        With it every block of :func:`sparse_mttkrp` scatter-adds into a
        short contiguous row range — the canonical COO order only
        guarantees that for mode 0.
        """
        if mode not in self._mode_perms:
            self._mode_perms[mode], _ = lex_order(
                [self.tensor.indices[:, mode]], [self.tensor.shape[mode]])
        return self._mode_perms[mode]

    def mttkrp(self, mode: int) -> np.ndarray:
        return sparse_mttkrp(self.tensor, self.factors, mode,
                             tracker=self.tracker, category="ttm",
                             order_perm=self._mode_perm(int(mode)))

    def _on_factor_update(self, mode: int) -> None:  # no cache to maintain
        return None
