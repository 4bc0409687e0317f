"""Sparse COO (coordinate) tensor format.

A :class:`CooTensor` stores an order-``N`` tensor as an ``(nnz, N)`` int64
index matrix plus an ``(nnz,)`` value vector.  Construction canonicalizes the
representation: indices are validated against the shape, sorted
lexicographically (mode 0 is the primary key), and duplicate coordinates are
summed, so ``norm`` / ``to_dense`` / the MTTKRP kernels can assume every row
is unique.  Explicit zeros surviving duplicate summation are kept (pruning
them would make round-trips through arithmetic surprising); ``from_dense``
never produces them.

The order comes from :func:`repro.sparse.ordering.lex_order`: one pass over
the C-order linearised coordinate shows whether the rows are canonical as
handed over (then nothing is sorted — a round trip, a block cut out of a
canonical tensor), otherwise that key is sorted once, and duplicates are the
places where the sorted key repeats.  Only a shape whose cell count leaves
int64 (``size`` is exact, a Python integer) goes through ``np.lexsort``.

The format targets the sparse real-world workloads the pairwise-perturbation
paper's cost models are motivated by (SPLATT-style sparse MTTKRP): the
per-mode nonzero statistics exposed here (``mode_nnz``, ``empty_slices``,
``stats``) are what a load balancer or a CSF-style reordering would consume.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.sparse.ordering import lex_order
from repro.utils.validation import check_mode

__all__ = ["CooTensor"]


def _check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(s) for s in shape)
    if len(out) == 0:
        raise ValueError("CooTensor requires at least one mode")
    if any(s <= 0 for s in out):
        raise ValueError(f"mode sizes must be positive, got {out}")
    return out


class CooTensor:
    """Canonical sparse coordinate tensor (sorted, deduplicated).

    Parameters
    ----------
    indices:
        Integer array of shape ``(nnz, ndim)``; row ``k`` holds the coordinate
        of value ``k``.
    values:
        Array of shape ``(nnz,)``; cast to ``dtype`` (float64 by default).
    shape:
        Mode sizes.  Coordinates must satisfy ``0 <= indices[:, m] < shape[m]``.
    dtype:
        Target floating dtype of ``values`` (default float64).
    """

    __slots__ = ("indices", "values", "shape", "_mode_nnz_cache", "_csf_cache")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Sequence[int],
        dtype: np.dtype | str | None = None,
    ):
        shape = _check_shape(shape)
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.reshape(0, len(shape))
        if idx.ndim != 2 or idx.shape[1] != len(shape):
            raise ValueError(
                f"indices must have shape (nnz, {len(shape)}), got {idx.shape}"
            )
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
        idx = np.ascontiguousarray(idx, dtype=np.int64)

        target = np.dtype(np.float64 if dtype is None else dtype)
        if not np.issubdtype(target, np.floating):
            raise ValueError(f"values dtype must be floating, got {target}")
        with np.errstate(over="ignore"):  # overflow is detected explicitly below
            vals = np.ascontiguousarray(np.asarray(values), dtype=target)
        if vals.ndim != 1 or vals.shape[0] != idx.shape[0]:
            raise ValueError(
                f"values must have shape ({idx.shape[0]},), got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("values contain non-finite entries")
        if idx.shape[0]:
            if idx.min() < 0 or (idx >= np.asarray(shape, dtype=np.int64)).any():
                raise ValueError("indices out of bounds for shape "
                                 f"{shape}")
            # canonical order: lexicographic with mode 0 as the primary key
            order, starts = lex_order(idx.T, shape)
            if order is not None:
                vals = vals[order]
            if starts.size < vals.shape[0]:
                # sum duplicate coordinates; each run keeps its first row
                vals = np.add.reduceat(vals, starts)
                order = starts if order is None else order[starts]
            if order is not None:
                idx = idx[order]
        self.indices = idx
        self.values = np.ascontiguousarray(vals)
        self.shape = shape
        self._mode_nnz_cache = {}
        self._csf_cache = {}

    # -- constructors ---------------------------------------------------------
    @classmethod
    def _from_canonical(cls, indices: np.ndarray, values: np.ndarray,
                        shape: tuple[int, ...]) -> "CooTensor":
        """Wrap already-canonical (sorted, deduped, validated) data without
        re-running the O(nnz log nnz) canonicalization."""
        out = object.__new__(cls)
        out.indices = indices
        out.values = values
        out.shape = shape
        out._mode_nnz_cache = {}
        out._csf_cache = {}
        return out

    @classmethod
    def from_dense(cls, tensor: np.ndarray, tol: float = 0.0,
                   dtype: np.dtype | str | None = None) -> "CooTensor":
        """Sparsify a dense array, keeping entries with ``|x| > tol``."""
        arr = np.asarray(tensor)
        if tol < 0:
            raise ValueError("tol must be non-negative")
        if not np.isfinite(arr).all():
            # NaN would silently fail the |x| > tol mask and be dropped;
            # reject corrupt input like the dense validation path does
            raise ValueError("tensor contains non-finite entries")
        mask = np.abs(arr) > tol
        coords = np.argwhere(mask)
        return cls(coords, arr[mask].ravel(), arr.shape, dtype=dtype)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ndarray (use only at small sizes)."""
        out = np.zeros(self.shape, dtype=self.values.dtype)
        if self.nnz:
            out[tuple(self.indices.T)] = self.values
        return out

    def astype(self, dtype: np.dtype | str) -> "CooTensor":
        """Cast values to ``dtype`` (returns ``self`` if unchanged).

        The index matrix is shared, not copied — the representation stays
        canonical, so no re-sorting/validation is needed.
        """
        target = np.dtype(dtype)
        if target == self.values.dtype:
            return self
        if not np.issubdtype(target, np.floating):
            raise ValueError(f"values dtype must be floating, got {target}")
        with np.errstate(over="ignore"):  # overflow is detected explicitly below
            values = self.values.astype(target)
        # narrowing can overflow finite values to inf; keep the invariant
        if not np.isfinite(values).all():
            raise ValueError(f"values become non-finite when cast to {target}")
        out = CooTensor._from_canonical(self.indices, values, self.shape)
        # the index pattern is shared, so the per-mode histograms are too
        out._mode_nnz_cache = self._mode_nnz_cache
        return out

    def copy(self) -> "CooTensor":
        return CooTensor._from_canonical(self.indices.copy(), self.values.copy(),
                                         self.shape)

    # -- properties -----------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def size(self) -> int:
        """Number of cells, as an exact Python integer (it may exceed int64)."""
        return math.prod(self.shape)

    @property
    def density(self) -> float:
        return self.nnz / self.size

    def norm(self) -> float:
        """Frobenius norm (exact: the representation is deduplicated)."""
        return float(np.linalg.norm(self.values))

    # -- indexing helpers -----------------------------------------------------
    def linearize(self, modes: Sequence[int]) -> np.ndarray:
        """C-order linearized coordinate of the selected ``modes`` per nonzero.

        With ``modes`` in increasing order this matches the column convention
        of :func:`repro.tensor.unfold.unfold` (the last selected mode varies
        fastest); the masked driver matches coordinates through it and the
        sparse partial MTTKRP keys its output rows on it.
        """
        modes = [int(m) for m in modes]
        if not modes:
            return np.zeros(self.nnz, dtype=np.int64)
        dims = tuple(self.shape[m] for m in modes)
        return np.ravel_multi_index(
            tuple(self.indices[:, m] for m in modes), dims
        ).astype(np.int64, copy=False)

    # -- per-mode nonzero statistics ------------------------------------------
    def mode_nnz(self, mode: int) -> np.ndarray:
        """Number of nonzeros in each mode-``mode`` slice (length ``shape[mode]``).

        The tensor is immutable, so the histogram is computed once per mode
        and cached (the load balancers of :mod:`repro.grid.balance` and
        :meth:`stats` consult it repeatedly); the returned array is read-only.
        """
        mode = check_mode(mode, self.ndim)
        cached = self._mode_nnz_cache.get(mode)
        if cached is None:
            cached = np.bincount(self.indices[:, mode], minlength=self.shape[mode])
            cached.flags.writeable = False
            self._mode_nnz_cache[mode] = cached
        return cached

    def empty_slices(self, mode: int) -> np.ndarray:
        """Indices along ``mode`` whose slice holds no nonzeros."""
        return np.flatnonzero(self.mode_nnz(mode) == 0)

    def stats(self) -> dict:
        """Summary statistics: global nnz/density plus per-mode slice counts.

        Built from the cached :meth:`mode_nnz` histograms, so repeated calls
        (e.g. one per partitioner candidate) never re-scan the nonzeros.
        """
        per_mode = []
        for mode in range(self.ndim):
            counts = self.mode_nnz(mode)
            per_mode.append(
                {
                    "mode": mode,
                    "size": self.shape[mode],
                    "empty_slices": int((counts == 0).sum()),
                    "max_slice_nnz": int(counts.max()) if counts.size else 0,
                    "mean_slice_nnz": float(counts.mean()) if counts.size else 0.0,
                }
            )
        return {
            "shape": self.shape,
            "nnz": self.nnz,
            "density": self.density,
            "modes": per_mode,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CooTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g}, dtype={self.dtype})"
        )
