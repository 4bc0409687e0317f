"""Compressed sparse fiber (CSF) layouts over :class:`~repro.sparse.coo.CooTensor`.

A :class:`CsfTensor` is the SPLATT-style hierarchical view of a sparse tensor
for one *mode ordering*: the nonzeros are sorted lexicographically with
``mode_order[0]`` as the primary key, and every prefix of the ordering is
compressed into a level of unique "fiber" nodes.  Level ``d`` holds one node
per distinct coordinate tuple over ``mode_order[:d + 1]``; its ``ptr`` array
delimits the node's children at level ``d + 1`` (or, at the deepest level, the
node's run of nonzeros).  Because the structure depends only on the sparsity
pattern — never on factor matrices — it is built once per ordering and reused
across every ALS sweep, which is exactly the amortization the sparse
dimension-tree MTTKRP (:mod:`repro.trees.sparse_dt`) relies on:

* the *root contraction* of the tree reduces each deepest-level fiber run of
  nonzeros into one ``R``-vector, producing a semi-sparse intermediate of
  ``n_fibers x R`` dense blocks;
* every further contraction regroups parent fibers into child fibers along a
  precomputed permutation and sums each group.

Both are *segmented sums* whose structure depends only on the sparsity
pattern, so each is stored once as a :class:`SegmentSum` — a SciPy CSR matrix
with the run offsets as ``indptr``, the gathered rows as column indices and
the optional per-row weights as data — and applied with ``op @ block`` (one
compiled sparse-times-dense product, no gathered or scaled temporary).

A layout costs one ordering of the nonzeros
(:func:`repro.sparse.ordering.lex_order`: none at all when the canonical COO
order already is the requested one) plus one pass per level for the run
offsets, which is all the contractions read.  The ``ptr`` / ``index`` arrays
of :attr:`CsfTensor.levels` are built when somebody first asks for them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csc_array, csr_array

from repro.sparse.coo import CooTensor
from repro.sparse.ordering import _run_starts, lex_order, run_starts

__all__ = ["CsfLevel", "CsfTensor", "SegmentSum", "csf_cache_stats",
           "reset_csf_cache_stats", "run_starts"]

# Guards every CooTensor's per-instance layout cache (the tensors are shared
# across multi-start / service worker threads) and the process-wide counters.
_CSF_CACHE_LOCK = threading.Lock()
_CSF_CACHE_HITS = 0
_CSF_CACHE_MISSES = 0


def csf_cache_stats() -> dict:
    """Process-wide hit/miss counters of the shared CSF layout cache.

    Every :meth:`CsfTensor.from_coo` call resolves through the source
    tensor's per-instance layout cache; a *hit* means two consumers (e.g.
    two service jobs, or the exact sweeps and the PP operators of one run)
    shared one layout build for the same tensor object and mode ordering.
    """
    with _CSF_CACHE_LOCK:
        return {"hits": _CSF_CACHE_HITS, "misses": _CSF_CACHE_MISSES}


def reset_csf_cache_stats() -> None:
    """Zero the process-wide CSF cache counters (test/benchmark isolation)."""
    global _CSF_CACHE_HITS, _CSF_CACHE_MISSES
    with _CSF_CACHE_LOCK:
        _CSF_CACHE_HITS = 0
        _CSF_CACHE_MISSES = 0


#: largest index SciPy's 32-bit sparse kernels can address; structures beyond
#: it get 64-bit index arrays
_INT32_MAX = int(np.iinfo(np.int32).max)


def _check_starts(starts: np.ndarray, n_rows: int) -> np.ndarray:
    """``starts`` as validated run offsets into ``n_rows`` rows.

    The offsets must begin at 0 and increase strictly below ``n_rows``: a
    first offset above 0 would drop the leading rows, and a repeated or
    decreasing offset would double-count or misplace a run.
    """
    starts = np.asarray(starts)
    if starts.ndim != 1 or (starts.size and not np.issubdtype(starts.dtype, np.integer)):
        raise ValueError(
            f"starts must be a 1-d integer array, got shape {starts.shape} "
            f"and dtype {starts.dtype}"
        )
    if starts.size == 0:
        if n_rows:
            raise ValueError(
                f"empty starts for a block of {n_rows} rows; a nonempty block "
                "forms at least one run (starts must begin with 0)"
            )
        return starts
    if starts[0] != 0:
        raise ValueError(
            f"starts must begin with 0, got starts[0] = {int(starts[0])} "
            "(the rows before it would be dropped)"
        )
    bad = np.flatnonzero(starts[1:] <= starts[:-1])
    if bad.size:
        k = int(bad[0]) + 1
        raise ValueError(
            f"starts must be strictly increasing, got starts[{k}] = "
            f"{int(starts[k])} after starts[{k - 1}] = {int(starts[k - 1])}"
        )
    if starts[-1] >= n_rows:
        raise ValueError(
            f"starts[{starts.size - 1}] = {int(starts[-1])} is not a row of a "
            f"block of {n_rows} rows"
        )
    return starts


def _check_index(name: str, index: np.ndarray, bound: int,
                 length: int | None = None) -> np.ndarray:
    """``index`` as a validated 1-d integer array with values in ``[0, bound)``."""
    index = np.asarray(index)
    if index.ndim != 1 or (length is not None and index.size != length) \
            or (index.size and not np.issubdtype(index.dtype, np.integer)):
        want = "a 1-d" if length is None else f"a length-{length}"
        raise ValueError(
            f"{name} must be {want} integer array, got shape {index.shape} "
            f"and dtype {index.dtype}"
        )
    if index.size and (index.min() < 0 or index.max() >= bound):
        raise ValueError(
            f"{name} must lie in [0, {bound}), got values in "
            f"[{int(index.min())}, {int(index.max())}]"
        )
    return index


def _index_dtype(maxval: int):
    return np.int32 if maxval <= _INT32_MAX else np.int64


def _frozen(array: np.ndarray, dtype) -> np.ndarray:
    """A read-only contiguous ``dtype`` array over ``array``'s data (a view when it fits)."""
    out = np.ascontiguousarray(array, dtype=dtype).view()
    out.flags.writeable = False
    return out


class SegmentSum:
    """Pattern-only segmented-sum operator, applied as ``op @ block``.

    The run form ``SegmentSum(starts, n_rows, ...)`` sums contiguous runs::

        (op @ block)[k] = sum(weights[i] * block[columns[i]]
                              for i in range(starts[k], starts[k + 1]))

    with the last run extending to ``n_rows``.  ``columns`` are optional
    gather indices into a ``block`` of ``n_columns`` rows (default: the
    identity, so ``block`` itself has ``n_rows`` rows); passing a permutation
    folds a regrouping into the sum, passing tensor coordinates together with
    the nonzero values as ``weights`` makes ``op @ factor`` a whole
    gather-multiply-reduce contraction.  The placement form
    :meth:`scatter` sums the rows of ``block`` into given output rows, in any
    order, leaving the others zero.

    Everything is validated here, once, so a malformed structure raises
    instead of silently dropping or double-counting rows.  The operator holds
    a SciPy sparse array in ``dtype`` (CSR for runs, CSC for a placement; the
    product with a ``dtype`` block stays in ``dtype``), never changes after
    construction, and can be applied from several threads at once.
    """

    __slots__ = ("_matrix",)

    def __init__(self, starts: np.ndarray, n_rows: int, *,
                 columns: np.ndarray | None = None,
                 n_columns: int | None = None,
                 weights: np.ndarray | None = None,
                 dtype=np.float64):
        n_rows = int(n_rows)
        starts = _check_starts(starts, n_rows)
        if n_columns is None:
            if columns is not None:
                raise ValueError("gather columns require n_columns")
            n_columns = n_rows
        n_columns = int(n_columns)
        index = _index_dtype(max(n_rows, n_columns))
        if columns is not None:
            columns = _check_index("columns", columns, n_columns, length=n_rows)
        elif n_columns == n_rows:
            columns = np.arange(n_rows, dtype=index)
        else:
            raise ValueError(
                f"n_columns = {n_columns} without gather columns; the block "
                f"then has n_rows = {n_rows} rows"
            )
        if weights is None:
            weights = np.ones(n_rows, dtype=dtype)
        elif np.shape(weights) != (n_rows,):
            raise ValueError(
                f"weights must have shape ({n_rows},), got {np.shape(weights)}"
            )
        indptr = np.empty(starts.size + 1, dtype=index)
        indptr[:-1] = starts
        indptr[-1] = n_rows
        self._matrix = csr_array(
            (_frozen(weights, dtype), _frozen(columns, index), _frozen(indptr, index)),
            shape=(starts.size, n_columns),
        )

    @classmethod
    def scatter(cls, rows: np.ndarray, n_out: int, *, dtype=np.float64) -> "SegmentSum":
        """The operator with ``(op @ block)[r] = sum(block[i] for i where rows[i] == r)``.

        ``rows`` (one output row per row of ``block``, any order, repeats
        allowed) is used as is, as the row indices of a SciPy CSC matrix with
        one entry per column: nothing is sorted, and the product streams
        through ``block`` once.  Output rows that no entry names are legal
        and sum to zero.
        """
        n_out = int(n_out)
        rows = _check_index("rows", rows, n_out)
        n_rows = rows.size
        index = _index_dtype(max(n_rows, n_out))
        op = cls.__new__(cls)
        op._matrix = csc_array(
            (_frozen(np.ones(n_rows, dtype=dtype), dtype), _frozen(rows, index),
             _frozen(np.arange(n_rows + 1, dtype=index), index)),
            shape=(n_out, n_rows),
        )
        return op

    @property
    def shape(self) -> tuple[int, int]:
        """``(output rows, rows of the block it applies to)``."""
        return self._matrix.shape

    @property
    def dtype(self) -> np.dtype:
        return self._matrix.dtype

    @property
    def nbytes(self) -> int:
        """Bytes of the stored pattern (weights, column indices, row pointer)."""
        m = self._matrix
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        """The segmented sums of ``block`` (1-d or 2-d), freshly allocated."""
        return self._matrix @ block

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SegmentSum(shape={self.shape}, dtype={self.dtype})"


def _check_mode_order(mode_order: Sequence[int], ndim: int) -> tuple[int, ...]:
    order = tuple(int(m) for m in mode_order)
    if sorted(order) != list(range(ndim)):
        raise ValueError(
            f"mode_order must be a permutation of range({ndim}), got {order}"
        )
    return order


@dataclass(frozen=True)
class CsfLevel:
    """One compressed index level of a :class:`CsfTensor`.

    ``index[i]`` is node ``i``'s coordinate along this level's mode;
    ``ptr[i]:ptr[i+1]`` is its children range in the next level (at the
    deepest level: its run of nonzeros in :attr:`CsfTensor.values`).
    """

    index: np.ndarray
    ptr: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.index.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.index.nbytes + self.ptr.nbytes)


class CsfTensor:
    """Compressed-sparse-fiber view of a :class:`CooTensor` for one mode ordering.

    The layout shares the source tensor's index/value storage wherever the
    requested ordering coincides with the canonical COO sort; otherwise a
    permutation of the nonzeros is computed once at build time.
    """

    __slots__ = ("source", "mode_order", "perm", "_levels", "_starts", "_values")

    def __init__(self, source: CooTensor, mode_order: Sequence[int] | None = None):
        if not isinstance(source, CooTensor):
            raise TypeError(
                f"CsfTensor expects a CooTensor, got {type(source).__name__}"
            )
        ndim = source.ndim
        order = (tuple(range(ndim)) if mode_order is None
                 else _check_mode_order(mode_order, ndim))
        self.source = source
        self.mode_order = order
        # the runs over all the modes are the deepest level's
        self.perm, deepest = lex_order([source.indices[:, m] for m in order],
                                       [source.shape[m] for m in order])
        self._values: np.ndarray | None = None
        self._levels: list[CsfLevel] | None = None

        nnz = source.nnz
        # changed[i] accumulates "any of the first d+1 sort keys differs
        # between sorted nonzeros i and i+1" as d grows
        changed = np.zeros(max(nnz - 1, 0), dtype=bool)
        starts: list[np.ndarray] = []
        for d in range(ndim - 1):
            col = self.sorted_column(d)
            np.logical_or(changed, col[1:] != col[:-1], out=changed)
            starts.append(_run_starts(changed, nnz))
        self._starts = starts + [deepest]

    @property
    def levels(self) -> list[CsfLevel]:
        """The compressed index levels, built on first access.

        No contraction reads them (the trees take :meth:`value_ptr`,
        :meth:`fiber_index` and :meth:`sorted_column`), so a layout that is
        only ever contracted never pays for them; :attr:`nbytes` counts them
        once they exist.
        """
        if self._levels is None:
            starts = self._starts
            levels: list[CsfLevel] = []
            for d in range(self.ndim):
                index = self.sorted_column(d)[starts[d]]
                if d == self.ndim - 1:
                    ptr = self.value_ptr(d)
                else:
                    # starts[d] is a subset of starts[d+1]: every depth-d node
                    # boundary is also a boundary one level down
                    ptr = np.concatenate((
                        np.searchsorted(starts[d + 1], starts[d]),
                        [starts[d + 1].shape[0]],
                    )).astype(np.int64)
                levels.append(CsfLevel(index=index, ptr=ptr))
            self._levels = levels
        return self._levels

    @classmethod
    def from_coo(cls, tensor: CooTensor,
                 mode_order: Sequence[int] | None = None) -> "CsfTensor":
        """The CSF layout of ``tensor`` for ``mode_order`` (default identity).

        Layouts depend only on the (immutable) sparsity pattern, so they are
        built once per ``(tensor, mode_order)`` and cached on the tensor
        instance — every consumer holding the same :class:`CooTensor` object
        (concurrent service jobs, multi-start threads, the PP operators of a
        running sweep) shares one build.  Process-wide hit/miss counters are
        exposed via :func:`csf_cache_stats`.
        """
        global _CSF_CACHE_HITS, _CSF_CACHE_MISSES
        if not isinstance(tensor, CooTensor):
            return cls(tensor, mode_order)  # constructor raises the TypeError
        key = (tuple(range(tensor.ndim)) if mode_order is None
               else _check_mode_order(mode_order, tensor.ndim))
        with _CSF_CACHE_LOCK:
            cached = tensor._csf_cache.get(key)
            if cached is not None:
                _CSF_CACHE_HITS += 1
                return cached
            _CSF_CACHE_MISSES += 1
        # build outside the lock: layouts are deterministic, so a racing
        # duplicate build is wasted work but never wrong
        layout = cls(tensor, key)
        with _CSF_CACHE_LOCK:
            return tensor._csf_cache.setdefault(key, layout)

    # -- permuted views of the source -----------------------------------------
    def sorted_column(self, depth: int) -> np.ndarray:
        """Coordinates along ``mode_order[depth]`` in CSF nonzero order."""
        col = self.source.indices[:, self.mode_order[depth]]
        return col if self.perm is None else col[self.perm]

    @property
    def values(self) -> np.ndarray:
        """Nonzero values in CSF order (cached gather)."""
        if self._values is None:
            self._values = (self.source.values if self.perm is None
                            else self.source.values[self.perm])
        return self._values

    # -- structure queries -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.source.shape

    @property
    def ndim(self) -> int:
        return self.source.ndim

    @property
    def nnz(self) -> int:
        return self.source.nnz

    @property
    def nbytes(self) -> int:
        """Bytes owned by the layout (excluding storage shared with the source)."""
        own = sum(s.nbytes for s in self._starts)
        if self._levels is not None:
            own += sum(level.nbytes for level in self._levels)
        if self.perm is not None:
            own += self.perm.nbytes
            if self._values is not None:  # cached gather, not a shared view
                own += self._values.nbytes
        return int(own)

    def n_fibers(self, depth: int) -> int:
        """Number of distinct fibers over ``mode_order[:depth + 1]``."""
        return int(self._starts[depth].shape[0])

    def value_ptr(self, depth: int) -> np.ndarray:
        """Run offsets of each depth-``depth`` node's nonzeros into :attr:`values`."""
        return np.concatenate((self._starts[depth], [self.nnz])).astype(np.int64)

    def fiber_index(self, depth: int) -> np.ndarray:
        """Coordinates of every depth-``depth`` node over ``mode_order[:depth + 1]``.

        Returns an ``(n_fibers, depth + 1)`` matrix whose column ``j`` is the
        coordinate along ``mode_order[j]``; rows are lexicographically sorted
        (that is the CSF invariant).  All nonzeros of a node share its prefix
        coordinates, so the first nonzero of each run supplies them.
        """
        starts = self._starts[depth]
        return np.stack(
            [self.sorted_column(j)[starts] for j in range(depth + 1)], axis=1
        )

    def to_coo(self) -> CooTensor:
        """Round-trip back to (canonical) COO — the layout loses nothing."""
        starts = self._starts[self.ndim - 1] if self.nnz else np.zeros(0, np.int64)
        deepest = np.stack(
            [self.sorted_column(j)[starts] for j in range(self.ndim)], axis=1
        ) if self.nnz else np.zeros((0, self.ndim), dtype=np.int64)
        # undo the mode permutation: column j carries mode_order[j]
        indices = np.empty_like(deepest)
        for j, m in enumerate(self.mode_order):
            indices[:, m] = deepest[:, j]
        return CooTensor(indices, self.values, self.shape,
                         dtype=self.source.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fibers = "x".join(str(s.shape[0]) for s in self._starts)
        return (
            f"CsfTensor(order={self.mode_order}, nnz={self.nnz}, "
            f"fibers={fibers})"
        )

