"""Common interface of the MTTKRP engines.

A provider is created once per ALS run (per processor in the parallel
algorithms, where ``tensor`` is the local block and ``factors`` are the local
factor blocks).  The ALS driver calls :meth:`MTTKRPProvider.mttkrp` right
before updating a mode and :meth:`MTTKRPProvider.set_factor` right after, so
the provider always sees the factor versions the mathematics requires.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.backend import is_sparse_tensor
from repro.trees.cache import ContractionCache
from repro.utils.validation import check_factor_matrices

__all__ = ["MTTKRPProvider"]


class MTTKRPProvider(abc.ABC):
    """Stateful MTTKRP engine bound to one tensor and one set of factors.

    ``tensor`` may be a dense ndarray (non-floating dtypes are promoted to
    float64, floating dtypes — including float32 — are preserved) or a sparse
    backend object such as :class:`repro.sparse.CooTensor`.  Factors are kept
    in the tensor's dtype so no contraction silently promotes.
    """

    #: registry name, overridden by subclasses
    name = "abstract"

    def __init__(
        self,
        tensor: np.ndarray,
        factors: Sequence[np.ndarray],
        tracker=None,
        max_cache_bytes: int | None = None,
    ):
        if is_sparse_tensor(tensor):
            self.tensor = tensor
        else:
            arr = np.asarray(tensor)
            if not np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
            self.tensor = np.ascontiguousarray(arr)
        factors = check_factor_matrices(factors, shape=self.tensor.shape,
                                        dtype=self.tensor.dtype)
        self.factors: list[np.ndarray] = list(factors)
        self.versions: list[int] = [0] * len(factors)
        self.tracker = tracker
        self.cache = ContractionCache(max_bytes=max_cache_bytes)
        self._update_clock = 0
        self._last_updated = [-1] * len(factors)

    # -- factor bookkeeping -------------------------------------------------------
    @property
    def order(self) -> int:
        return self.tensor.ndim

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def dtype(self) -> np.dtype:
        """Working dtype of the tensor and (therefore) the factors."""
        return self.tensor.dtype

    def set_factor(self, mode: int, factor: np.ndarray) -> None:
        """Install the updated factor for ``mode`` and bump its version."""
        factor = np.asarray(factor, dtype=self.tensor.dtype)
        if factor.shape != self.factors[mode].shape:
            raise ValueError(
                f"factor for mode {mode} must keep shape {self.factors[mode].shape}, "
                f"got {factor.shape}"
            )
        self.factors[mode] = factor
        self.versions[mode] += 1
        self._update_clock += 1
        self._last_updated[mode] = self._update_clock
        self._on_factor_update(mode)

    def most_recently_updated(self, exclude: int | None = None) -> int:
        """Mode with the most recent update (ties/no updates: the largest index)."""
        candidates = [m for m in range(self.order) if m != exclude]
        if not candidates:
            raise ValueError("no candidate modes")
        return max(candidates, key=lambda m: (self._last_updated[m], m))

    def _on_factor_update(self, mode: int) -> None:
        """Hook for subclasses (default: opportunistically drop stale cache entries)."""
        self.cache.invalidate_stale(self.versions)

    # -- the engine ----------------------------------------------------------------
    @abc.abstractmethod
    def mttkrp(self, mode: int) -> np.ndarray:
        """Return ``M^(mode)`` for the current factors."""

    # -- diagnostics -----------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Counters of the provider's intermediate cache."""
        return {
            "entries": len(self.cache),
            "bytes": self.cache.total_bytes,
            "hits": self.cache.hits,
            "misses": self.cache.misses,
        }
