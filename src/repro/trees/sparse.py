"""Recompute / unfolding MTTKRP providers over the sparse COO backend.

Two engines, mirroring the dense ``naive`` / ``unfolding`` pair so the
sparse-vs-dense parity suite can cross-check independent implementations:

* :class:`SparseCooMTTKRP` — blockwise gather / Hadamard / scatter-add
  over the nonzeros (:func:`repro.sparse.mttkrp.sparse_mttkrp`),
  ``O(nnz * R * N)`` per call with a bounded workspace.  For non-primary
  output modes the provider caches a per-mode nonzero ordering (one stable
  sort, built once — the tensor never changes) so every block's
  scatter-add touches a short contiguous range of output rows instead of
  all of them.
* :class:`SparseUnfoldingMTTKRP` — the unfolding-equivalent baseline: a
  scipy CSR mode-``n`` matricization (built once per mode and kept, the
  tensor never changes) times the dense Khatri-Rao matrix of the other
  factors.  Forms the full ``(prod_{m != n} s_m) x R`` Khatri-Rao matrix, so
  like its dense twin it is only suitable for small problems;
  ``max_cache_bytes`` bounds that workspace *hard* (a clear error instead of
  a silent blow-up).

The amortizing ``dt``/``msdt`` engines over sparse inputs live in
:mod:`repro.trees.sparse_dt` (CSF-based semi-sparse dimension trees); the
registry dispatches all names per backend.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.mttkrp import sparse_mttkrp
from repro.sparse.ordering import lex_order
from repro.tensor.products import khatri_rao
from repro.trees.base import MTTKRPProvider

__all__ = ["SparseCooMTTKRP", "SparseUnfoldingMTTKRP"]


class SparseCooMTTKRP(MTTKRPProvider):
    """Recompute every sparse MTTKRP from scratch in ``O(nnz * R * N)``."""

    name = "naive"

    def __init__(self, tensor, factors, tracker=None, max_cache_bytes=None,
                 engine=None):
        super().__init__(tensor, factors, tracker=tracker,
                         max_cache_bytes=max_cache_bytes, engine=engine)
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
                             engine=self.engine,
                             order_perm=self._mode_perm(int(mode)))

    def _on_factor_update(self, mode: int) -> None:  # no cache to maintain
        return None


class SparseUnfoldingMTTKRP(MTTKRPProvider):
    """Sparse-unfolding MTTKRP: cached CSR matricization times dense Khatri-Rao."""

    name = "unfolding"

    def __init__(self, tensor, factors, tracker=None, max_cache_bytes=None,
                 engine=None):
        super().__init__(tensor, factors, tracker=tracker,
                         max_cache_bytes=max_cache_bytes, engine=engine)
        self._max_unfolding_bytes = max_cache_bytes
        self._unfolding_bytes = 0
        self._unfoldings: dict[int, object] = {}

    @staticmethod
    def _csr_bytes(csr) -> int:
        return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)

    def _unfolding(self, mode: int):
        """CSR mode-``mode`` matricization, built lazily.

        Unfoldings are cached (the tensor never changes) within the same
        ``max_cache_bytes`` budget the other providers apply to their
        intermediate caches; over budget, the oldest unfolding is evicted and
        rebuilt on demand.
        """
        cached = self._unfoldings.get(mode)
        if cached is not None:
            return cached
        from scipy import sparse as sp

        t = self.tensor
        others = [m for m in range(t.ndim) if m != mode]
        n_cols = int(np.prod([t.shape[m] for m in others], dtype=np.int64)) or 1
        cached = sp.csr_matrix(
            (t.values, (t.indices[:, mode], t.linearize(others))),
            shape=(t.shape[mode], n_cols),
        )
        size = self._csr_bytes(cached)
        budget = self._max_unfolding_bytes
        if budget is not None:
            if size > budget:
                return cached  # too large to cache at all: hand back uncached
            while self._unfoldings and self._unfolding_bytes + size > budget:
                evicted = self._unfoldings.pop(next(iter(self._unfoldings)))
                self._unfolding_bytes -= self._csr_bytes(evicted)
        self._unfoldings[mode] = cached
        self._unfolding_bytes += size
        return cached

    def _check_khatri_rao_budget(self, mode: int) -> None:
        """Refuse to materialize a Khatri-Rao workspace over ``max_cache_bytes``.

        The engine's defining weakness is the dense
        ``(prod_{m != mode} s_m) x R`` Khatri-Rao matrix; when the caller set a
        byte budget, silently allocating past it defeats the point, so the
        violation is reported up front with the workspace size and the engines
        that avoid it.
        """
        budget = self._max_unfolding_bytes
        if budget is None:
            return
        n_rows = int(np.prod(
            [self.tensor.shape[m] for m in range(self.order) if m != mode],
            dtype=np.int64,
        ))
        kr_bytes = n_rows * self.rank * np.dtype(self.dtype).itemsize
        if kr_bytes > budget:
            raise MemoryError(
                f"unfolding MTTKRP of a sparse tensor for mode {mode} needs a dense "
                f"{n_rows} x {self.rank} Khatri-Rao workspace "
                f"({kr_bytes} bytes), exceeding max_cache_bytes={budget}; "
                "use the 'naive' (COO) engine or the sparse dimension trees "
                "('dt'/'msdt'), which never densify"
            )

    def mttkrp(self, mode: int) -> np.ndarray:
        others = [m for m in range(self.order) if m != mode]
        if not others:  # order-1: the unfolding itself is the MTTKRP row sum
            return np.asarray(self._unfolding(mode).sum(axis=1)).repeat(
                self.rank, axis=1
            )
        self._check_khatri_rao_budget(mode)
        kr = khatri_rao([self.factors[m] for m in others],
                        tracker=self.tracker, category="khatri_rao",
                        engine=self.engine)
        out = self._unfolding(mode) @ kr
        if self.tracker is not None:
            self.tracker.add_flops("ttm", 2 * self.tensor.nnz * self.rank)
            self.tracker.add_vertical_words(
                self.tensor.nnz * (self.order + 1) + kr.size + out.size
            )
        return np.ascontiguousarray(out)

    def _on_factor_update(self, mode: int) -> None:  # unfoldings never go stale
        return None
