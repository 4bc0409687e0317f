"""Semi-sparse pairwise-perturbation operators.

The PP initialization step needs every pairwise operator ``M_p^(i,j)`` (Eq. 4
with two kept modes) at a factor checkpoint.  Over a sparse tensor each one is
a partially contracted MTTKRP, and — exactly like the sweep intermediates of
:mod:`repro.trees.sparse_dt` — it is *semi-sparse*: only the distinct
``(i, j)`` coordinate pairs that carry at least one nonzero have nonzero
``R``-vectors.  :meth:`repro.trees.pp_operators.PairwiseOperators.build`
obtains them, dense and sparse alike, from the tree provider's
:meth:`~repro.trees.amortized.AmortizedTreeMTTKRP.partial_mttkrp`: descents
that start at the deepest still-valid cached intermediate (first-level
intermediates left over from the preceding DT/MSDT sweep are free, footnote 1
of the paper), contract the other modes in ascending order (the shared
intermediates of the paper's PP tree, Fig. 1b) and run on the provider's
cached CSF layouts and fiber regroupings.  Checkpoint setup thus costs ``N - 1``
root contractions plus fiber-level work, not ``binom(N, 2)`` passes over the
nonzeros.

The pair operators themselves *stay semi-sparse* (padded per-rank blocks of
order > 3 tensors must not densify in
:func:`~repro.core.parallel_pp_cp_als.parallel_pp_cp_als`): a
:class:`SemiSparsePairOperator` holds the sorted ``(n_fibers, 2)`` fibers and
their ``R``-vectors rank-first, the data of a block-diagonal ``(R s_i, R s_j)``
CSR matrix ``B`` (block ``r``: the fiber pattern, rank column ``r``), so a
first-order correction ``U^(n,i)`` (Eq. 6) is one sparse matrix-vector
product, ``B @ vec(dA_j^T)`` or ``B.T @ vec(dA_i^T)``: nothing of size
``n_fibers x R`` is gathered or allocated.  ``B``'s index arrays are kept per
pair on the tree provider; a checkpoint lays out only the data, once (layout
by measurement: ``docs/engines.rst``, "The approximated sweep").

Example
-------
>>> import numpy as np
>>> from repro.sparse import CooTensor
>>> from repro.tensor.mttkrp import mttkrp, partial_mttkrp
>>> from repro.trees.pp_operators import PairwiseOperators
>>> rng = np.random.default_rng(0)
>>> dense = rng.random((4, 3, 3)) * (rng.random((4, 3, 3)) < 0.5)
>>> coo = CooTensor.from_dense(dense)
>>> factors = [rng.random((s, 2)) for s in coo.shape]
>>> ops = PairwiseOperators.build(coo, factors)
>>> sorted(ops.pairs())
[(0, 1), (0, 2), (1, 2)]
>>> type(ops.pairs()[0, 1]).__name__
'SemiSparsePairOperator'
>>> bool(np.allclose(ops.pairs()[0, 1].densify(),
...                  partial_mttkrp(dense, factors, [0, 1]), atol=1e-12))
True
>>> bool(np.allclose(ops.single(2), mttkrp(dense, factors, 2), atol=1e-12))
True
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import csr_array

__all__ = ["SemiSparsePairOperator"]


def _rank_first(block: np.ndarray) -> np.ndarray:
    """``block`` ``(F, R)`` copied into a C-contiguous ``(R, F)`` array 256 fibers
    at a time (0.55 ms at 35 500 x 16; ``np.ascontiguousarray(block.T)``: 2.4 ms)."""
    out = np.empty(block.shape[::-1], dtype=block.dtype)
    for start in range(0, len(block), 256):
        out[:, start:start + 256] = block[start:start + 256].T
    return out


def _block_diagonal_pattern(fibers, dims, rank) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, indptr)`` of ``B``: row ``x + r s_i`` holds the fibers of lead
    coordinate ``x`` in fiber order at columns ``y_f + r s_j``."""
    s_i, s_j = dims
    index = np.int32 if rank * max(s_i, s_j, len(fibers)) < 2**31 else np.int64
    indices = fibers[:, 1].astype(index) + np.arange(rank, dtype=index)[:, None] * s_j
    indptr = np.zeros(rank * s_i + 1, dtype=index)
    np.cumsum(np.tile(np.bincount(fibers[:, 0], minlength=s_i), rank), out=indptr[1:])
    return indices.ravel(), indptr


class SemiSparsePairOperator:
    """Pairwise operator ``M_p^(i,j)`` restricted to its nonzero fibers.

    ``fibers[f]`` is the ``(i-coordinate, j-coordinate)`` of fiber ``f``
    (rows lexicographically sorted and unique, the CSF invariant) and
    ``block[f]`` its ``R``-vector; every row of the dense ``(s_i, s_j, R)``
    operator outside those fibers is exactly zero.  The object is immutable
    after construction — a checkpoint operator must not drift while the PP
    approximated sweeps update the factors.

    ``block`` is held as the view of a rank-first copy, the data of
    :meth:`contract_other`'s block-diagonal matrix; ``pattern``, that
    matrix's ``(indices, indptr)``, depends on ``fibers``, ``dims`` and ``R``
    alone, so whoever builds operators over the same fibers again (the tree
    provider, once per PP checkpoint) passes the previous one's back in.
    """

    __slots__ = ("modes", "fibers", "block", "dims", "pattern", "_products")

    def __init__(self, modes: tuple[int, int], fibers: np.ndarray,
                 block: np.ndarray, dims: tuple[int, int],
                 pattern: tuple[np.ndarray, np.ndarray] | None = None):
        i, j = (int(modes[0]), int(modes[1]))
        if not i < j:
            raise ValueError(f"pair operator modes must satisfy i < j, got {(i, j)}")
        if fibers.ndim != 2 or fibers.shape[1] != 2:
            raise ValueError(f"fibers must have shape (n_fibers, 2), got {fibers.shape}")
        if block.ndim != 2 or block.shape[0] != fibers.shape[0]:
            raise ValueError(
                f"block shape {block.shape} inconsistent with {fibers.shape[0]} fibers"
            )
        if fibers.shape[0] > 1:
            # densify() and the block-diagonal matrix silently assume the
            # CSF invariant; a violation would misplace or drop
            # contributions, not error
            d0 = np.diff(fibers[:, 0])
            d1 = np.diff(fibers[:, 1])
            if not bool(np.all((d0 > 0) | ((d0 == 0) & (d1 > 0)))):
                raise ValueError(
                    "fibers must be lexicographically sorted with unique rows"
                )
        self.modes = (i, j)
        self.fibers = fibers
        self.dims = (int(dims[0]), int(dims[1]))
        data = _rank_first(block)
        self.block, rank = data.T, data.shape[0]
        self.pattern = pattern or _block_diagonal_pattern(fibers, self.dims, rank)
        forward = csr_array((data.ravel(), *self.pattern),
                            shape=(rank * self.dims[0], rank * self.dims[1]))
        self._products = (forward, forward.T)  # by out_axis; .T is CSC, same arrays

    # -- properties ----------------------------------------------------------
    @property
    def n_fibers(self) -> int:
        """Number of ``(i, j)`` coordinate pairs carrying at least one nonzero."""
        return int(self.fibers.shape[0])

    @property
    def rank(self) -> int:
        """CP rank ``R`` (the trailing axis of the dense operator)."""
        return int(self.block.shape[1])

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape ``(s_i, s_j, R)`` of the dense operator this represents."""
        return (self.dims[0], self.dims[1], self.rank)

    @property
    def nbytes(self) -> int:
        """Bytes held by the fiber index matrix and the dense block."""
        return int(self.fibers.nbytes + self.block.nbytes)

    def memory_words(self) -> int:
        """Auxiliary memory in 8-byte words (fiber ids + rank block)."""
        return int(self.fibers.size + self.block.size)

    # -- views ---------------------------------------------------------------
    def densify(self) -> np.ndarray:
        """Expand to the full dense ``(s_i, s_j, R)`` operator array."""
        out = np.zeros(self.shape, dtype=self.block.dtype)
        if self.n_fibers:
            out[self.fibers[:, 0], self.fibers[:, 1]] = self.block
        return out

    def __array__(self, dtype=None, copy=None):
        """Densify under ``np.asarray`` (tests and dense consumers)."""
        dense = self.densify()
        return dense if dtype is None else dense.astype(dtype)

    # -- contraction ---------------------------------------------------------
    def contract_other(
        self,
        factor: np.ndarray,
        out_axis: int,
        tracker=None,
        out: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Contract ``factor`` over the non-output fiber axis (Eq. 6 kernel).

        ``out_axis`` selects which of the two kept modes survives: the result
        is the dense ``(dims[out_axis], R)`` matrix
        ``sum_y M(x, y, k) * factor(y, k)``: one product of the block-diagonal
        matrix (or its transpose) with ``vec(factor^T)``, adding each output
        row's fibers in fiber order — ``2 R`` flops per fiber, not ``s_i s_j R``.

        With ``accumulate=True`` the contribution is *added* into the caller's
        ``out`` buffer instead of overwriting it (the fused PP approximated
        step assembles Eq. 5 this way).
        """
        if out_axis not in (0, 1):
            raise ValueError(f"out_axis must be 0 or 1, got {out_axis}")
        factor = np.asarray(factor)
        other = 1 - out_axis
        if factor.shape != (self.dims[other], self.rank):
            raise ValueError(
                f"factor shape {factor.shape} incompatible with pair operator of "
                f"shape {self.shape} contracted over axis {other}"
            )
        expected = (self.dims[out_axis], self.rank)
        if out is None:
            if accumulate:
                raise ValueError("accumulate=True requires an out= buffer")
            out = np.zeros(expected, dtype=self.block.dtype)
        else:
            if out.shape != expected:
                raise ValueError(f"out must have shape {expected}, got {out.shape}")
            if not accumulate:
                out.fill(0.0)
        start = time.perf_counter()
        if self.n_fibers:
            summed = self._products[out_axis] @ factor.T.ravel()
            out += summed.reshape(self.rank, -1).T  # out is zero unless accumulating
        elapsed = time.perf_counter() - start
        if tracker is not None:
            tracker.add_flops("mttv", 2 * self.n_fibers * self.rank)
            tracker.add_vertical_words(
                self.n_fibers * (2 + 2 * self.rank) + out.size
            )
            tracker.add_seconds("mttv", elapsed)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SemiSparsePairOperator(modes={self.modes}, dims={self.dims}, "
            f"n_fibers={self.n_fibers}, rank={self.rank})"
        )
