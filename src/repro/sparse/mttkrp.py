"""Sparse MTTKRP kernels over :class:`~repro.sparse.coo.CooTensor`.

For a nonzero ``v`` at coordinate ``(i_1, ..., i_N)`` the mode-``n`` MTTKRP
receives the contribution ``v * hadamard_{j != n} A^(j)[i_j, :]`` added into
row ``i_n`` of the output.  The kernels below process the nonzeros in blocks
of bounded size: gather the factor rows addressed by the block's coordinates,
form the per-nonzero Khatri-Rao (row-wise Hadamard) products with one cached
einsum through :mod:`repro.contract`, and scatter-add into the output with one
sparse-times-dense product (:class:`~repro.sparse.csf.SegmentSum`).  Total
work is ``O(nnz * R * N)`` versus the
dense kernel's ``O(prod(shape) * R)`` — the classic sparse-MTTKRP bound of the
SPLATT line of work the paper's cost models build on.

:func:`sparse_partial_mttkrp` generalizes to the partially contracted
intermediates ``M^(i1,...,im)`` of Eq. (4) (kept modes as leading axes,
trailing rank axis), which is all the pairwise-perturbation operator builder
needs to run PP-CP-ALS on sparse inputs.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.contract import contract
from repro.sparse.coo import CooTensor
from repro.sparse.csf import SegmentSum
from repro.utils.validation import check_factor_matrices, check_mode

__all__ = ["sparse_mttkrp", "sparse_partial_mttkrp", "DEFAULT_BLOCK_SIZE"]

#: nonzeros per block: bounds the gathered-row workspace at
#: ``block * R * (N - 1)`` floats regardless of nnz
DEFAULT_BLOCK_SIZE = 1 << 16


def _check_sparse_inputs(tensor: CooTensor, factors, *, what: str):
    if not isinstance(tensor, CooTensor):
        raise TypeError(f"{what} expects a CooTensor, got {type(tensor).__name__}")
    return check_factor_matrices(factors, shape=tensor.shape, dtype=tensor.dtype)


def _hadamard_rows(values: np.ndarray, rows: list[np.ndarray]) -> np.ndarray:
    """Per-nonzero Khatri-Rao rows: ``values[b] * prod_j rows[j][b, :]``.

    One einsum (``"b,br,...->br"``) on the process-wide plan cache.
    """
    spec = "b," + ",".join("br" for _ in rows) + "->br"
    return contract(spec, values, *rows)


def _scatter_add(out: np.ndarray, segments: np.ndarray, block: np.ndarray) -> None:
    """``out[segments[b], :] += block[b, :]`` (repeated rows accumulate).

    One :class:`~repro.sparse.csf.SegmentSum` product over the row range the
    block touches: sorted segments (the primary sort mode of a canonical
    :class:`CooTensor`, or any mode under ``order_perm``) touch a short
    contiguous range, so the cost stays proportional to the block and not to
    the height of ``out``.
    """
    if segments.size == 0:
        return
    lo, hi = int(segments.min()), int(segments.max()) + 1
    out[lo:hi] += SegmentSum.scatter(segments - lo, hi - lo,
                                     dtype=block.dtype) @ block


def sparse_mttkrp(
    tensor: CooTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    tracker=None,
    category: str = "mttkrp",
    block_size: int = DEFAULT_BLOCK_SIZE,
    out: np.ndarray | None = None,
    order_perm: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse MTTKRP ``M^(mode)`` in ``O(nnz * R * N)`` work.

    Parameters
    ----------
    tensor:
        The sparse input tensor.
    factors:
        CP factor matrices (validated against ``tensor.shape``).
    mode:
        Output mode.
    block_size:
        Nonzeros per gather/scatter block (bounds the workspace).
    out:
        Optional preallocated ``(shape[mode], R)`` buffer; zeroed and filled.
    order_perm:
        Optional permutation of the nonzeros making ``indices[:, mode]``
        non-decreasing (e.g. the ``perm`` of
        :func:`~repro.sparse.ordering.lex_order` over that column).  The
        canonical COO sort already guarantees that for mode 0; for other
        modes passing the (pattern-only, reusable) permutation makes every
        block's scatter-add touch a short contiguous range of output rows
        instead of all of them.
    """
    factors = _check_sparse_inputs(tensor, factors, what="sparse_mttkrp")
    mode = check_mode(mode, tensor.ndim)
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    rank = factors[0].shape[1]

    start = time.perf_counter()
    if out is None:
        out = np.zeros((tensor.shape[mode], rank), dtype=tensor.dtype)
    else:
        if out.shape != (tensor.shape[mode], rank):
            raise ValueError(
                f"out must have shape {(tensor.shape[mode], rank)}, got {out.shape}"
            )
        if out.dtype != tensor.dtype:
            # scatter-adds would silently downcast (same-kind casting)
            raise ValueError(
                f"out must have dtype {tensor.dtype}, got {out.dtype}"
            )
        out.fill(0.0)
    if order_perm is not None and order_perm.shape != (tensor.nnz,):
        raise ValueError(
            f"order_perm must have shape ({tensor.nnz},), got {order_perm.shape}"
        )
    others = [j for j in range(tensor.ndim) if j != mode]
    for lo in range(0, tensor.nnz, block_size):
        if order_perm is None:
            idx = tensor.indices[lo:lo + block_size]
            values = tensor.values[lo:lo + block_size]
        else:  # gather stays block-bounded: permute one slice at a time
            chunk = order_perm[lo:lo + block_size]
            idx = tensor.indices[chunk]
            values = tensor.values[chunk]
        if others:
            rows = [factors[j][idx[:, j]] for j in others]
            block = _hadamard_rows(values, rows)
        else:  # order-1 tensor: the empty Hadamard product is all-ones
            block = np.broadcast_to(values[:, None], (values.shape[0], rank))
        _scatter_add(out, idx[:, mode], block)
    elapsed = time.perf_counter() - start
    if tracker is not None:
        # gather/Hadamard (2 nnz R (N-1)) + scatter-add (nnz R), and the
        # touched words: the COO payload plus the output
        tracker.add_flops(category, (2 * (tensor.ndim - 1) + 1) * tensor.nnz * rank)
        tracker.add_vertical_words(tensor.nnz * (tensor.ndim + 1) + out.size)
        tracker.add_seconds(category, elapsed)
    return out


def sparse_partial_mttkrp(
    tensor: CooTensor,
    factors: Sequence[np.ndarray],
    keep_modes: Sequence[int],
    tracker=None,
    category: str = "mttkrp",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Sparse partially contracted MTTKRP ``M^(i1,...,im)`` (Eq. 4).

    Contracts the factor matrices of every mode *not* in ``keep_modes``; the
    kept modes (increasing order) are the leading axes of the result and the
    CP rank the trailing axis — identical semantics to the dense
    :func:`repro.tensor.mttkrp.partial_mttkrp`.  With every mode kept the
    dense tensor broadcast against an all-ones rank axis is returned (the
    paper's ``M^(1,...,N) = T`` convention), which densifies and is only
    sensible at small sizes.
    """
    factors = _check_sparse_inputs(tensor, factors, what="sparse_partial_mttkrp")
    order = tensor.ndim
    keep = sorted({check_mode(m, order) for m in keep_modes})
    if len(keep) != len(list(keep_modes)):
        raise ValueError(f"keep_modes contains duplicates: {keep_modes}")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    rank = factors[0].shape[1]
    contracted = [j for j in range(order) if j not in keep]
    if not contracted:
        dense = tensor.to_dense()
        return np.broadcast_to(dense[..., None], dense.shape + (rank,)).copy()

    keep_dims = tuple(tensor.shape[m] for m in keep)
    n_rows = int(np.prod(keep_dims, dtype=np.int64)) if keep else 1
    flat = np.zeros((n_rows, rank), dtype=tensor.dtype)
    start = time.perf_counter()
    segments = tensor.linearize(keep)
    for lo in range(0, tensor.nnz, block_size):
        idx = tensor.indices[lo:lo + block_size]
        rows = [factors[j][idx[:, j]] for j in contracted]
        block = _hadamard_rows(tensor.values[lo:lo + block_size], rows)
        _scatter_add(flat, segments[lo:lo + block_size], block)
    elapsed = time.perf_counter() - start
    if tracker is not None:
        tracker.add_flops(category, (2 * len(contracted) + 1) * tensor.nnz * rank)
        tracker.add_vertical_words(tensor.nnz * (order + 1) + flat.size)
        tracker.add_seconds(category, elapsed)
    return flat.reshape(keep_dims + (rank,))
