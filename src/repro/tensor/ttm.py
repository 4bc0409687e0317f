"""Tensor-times-matrix (TTM) kernels.

Three kernels are provided:

* :func:`ttm` — the textbook mode-``n`` product ``T x_n A`` whose output keeps
  the contracted mode in place with the new dimension (rows of ``A``); an
  einsum through the process-wide plan cache of :mod:`repro.contract`.
* :func:`first_contraction` — the "first-level contraction" used by dimension
  trees (Section II-C of the paper): contracting mode ``n`` of the input
  tensor with a factor matrix ``A^(n)`` of shape ``(s_n, R)`` *removes* that
  mode and appends a trailing rank axis, producing the partially contracted
  MTTKRP intermediate ``M^({1..N} \\ {n})`` of Eq. (4).  This is the hot loop
  of every dense tree sweep and runs as a batched BLAS GEMM on views of the
  tensor, not through einsum (``docs/engines.rst``, "Dense hot loops").
* :func:`trailing_contraction` — the partial MTTKRP of the dimension tree's
  trailing half: the last ``k >= 2`` modes contracted at once with the
  Khatri-Rao product of their factors, one batched GEMM on row blocks of the
  ``(lead, trail)`` unfolding.  It leaves the intermediate a first-level TTM
  and ``k - 1`` mTTVs would, without forming the order-``(N - 1)`` one in
  between.

All three record ``2 * prod(shape) * R`` flops (one multiply + one add per term)
into the tracker under the ``"ttm"`` category, which is how the TTM bar of the
paper's Figure 3c-f breakdown is measured.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from repro.contract import contract, subscript_letters
from repro.tensor.intermediate import empty_rank_first, rank_last
from repro.tensor.products import khatri_rao
from repro.utils.validation import check_mode

__all__ = ["ttm", "multi_ttm", "first_contraction", "trailing_contraction"]

#: Multiply-adds one GEMM of :func:`first_contraction`'s batch may do.  A block
#: this small keeps its slice of the tensor, its slice of the output and the
#: factor together in a core's L2 (256 KB of tensor at ``R = 16``), so BLAS
#: never packs a panel it has to stream from memory twice, and it is within
#: the ``M * N * K <= 10^6`` range in which OpenBLAS's AVX-512 builds skip
#: packing altogether: at 32^4, R = 16 a mode-0 TTM takes 1.3 ms as one GEMM
#: and 0.75-1.1 ms in blocks of 32 to 1024 columns.
_GEMM_WORK = 1 << 19

#: Largest contracted extent for which a block of *trailing* indices is split
#: off at all.  Such a block is a strided view, ``s_mode`` rows that each lie
#: on a page of their own, and an unpacked GEMM walks all of them per output
#: tile: within the reach of an L1 data TLB (64-96 entries) that beats packing
#: (1.95 against 2.93 ms at 20^5, R = 8), beyond it packing one large GEMM wins
#: (0.97 against 1.44 ms for mode 0 of 200x30x20x10).  Blocks of rows, which
#: the last mode uses, are contiguous and gain at every extent.
_STRIDED_ROWS = 64

#: Largest ``M * N * K`` of a GEMM that OpenBLAS's AVX-512 builds run with
#: their small-matrix kernels, without packing.  A GEMM of
#: :func:`trailing_contraction` just past it is packed and 2-3x slower (32^4,
#: R = 16: 1.1 ms in blocks of 48 rows, 2.4 ms in blocks of 64); every such
#: step measured for the table in ``docs/engines.rst`` ("Dense hot loops")
#: sits exactly at this bound.
_UNPACKED_GEMM = 10**6

#: :func:`trailing_contraction` takes the unfolding's rows in multiples of this
#: many per GEMM: 8 doubles fill an AVX-512 register, and blocks of 6 or 10
#: rows run 10-30 % slower than blocks of 4, 8 or 12.
_ROW_QUANTUM = 8


def _record(tracker, category: str, flops: int, words: int = 0, seconds: float = 0.0) -> None:
    if tracker is not None:
        tracker.add_flops(category, flops)
        if words:
            tracker.add_vertical_words(words)
        if seconds:
            tracker.add_seconds(category, seconds)


def ttm(
    tensor: np.ndarray,
    matrix: np.ndarray,
    mode: int,
    transpose: bool = False,
    tracker=None,
    category: str = "ttm",
) -> np.ndarray:
    """Mode-``mode`` tensor-times-matrix product ``T x_mode M``.

    ``matrix`` has shape ``(J, s_mode)`` (or ``(s_mode, J)`` with
    ``transpose=True``); the result replaces dimension ``s_mode`` with ``J``.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    mode = check_mode(mode, tensor.ndim)
    mat = matrix.T if transpose else matrix
    if mat.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix with {mat.shape[1]} columns cannot contract mode {mode} of size {tensor.shape[mode]}"
        )
    subs = subscript_letters(tensor.ndim, exclude="J")
    out_subs = list(subs)
    out_subs[mode] = "J"
    spec = f"{''.join(subs)},J{subs[mode]}->{''.join(out_subs)}"
    start = time.perf_counter()
    out = contract(spec, tensor, mat)
    elapsed = time.perf_counter() - start
    _record(tracker, category, 2 * tensor.size * mat.shape[0], tensor.size + out.size, elapsed)
    return out


def multi_ttm(
    tensor: np.ndarray,
    matrices: Sequence[np.ndarray],
    modes: Sequence[int],
    transpose: bool = False,
    tracker=None,
    category: str = "ttm",
) -> np.ndarray:
    """Apply :func:`ttm` along several modes in sequence."""
    if len(matrices) != len(modes):
        raise ValueError("multi_ttm requires one matrix per mode")
    out = np.asarray(tensor)
    for matrix, mode in zip(matrices, modes):
        out = ttm(out, matrix, mode, transpose=transpose, tracker=tracker,
                  category=category)
    return out


def _gemm_block(extents: Sequence[int], work_per_index: int) -> int:
    """Product of as many trailing ``extents`` as keep one GEMM of the batch small.

    The block is the kept-index extent of one matrix of the batch; it always
    takes the innermost (non-trivial) extent and then grows by whole extents
    while ``block * work_per_index`` multiply-adds stay within
    :data:`_GEMM_WORK`.  (A zero extent yields 1: the batch is empty and only
    has to reshape.)
    """
    block = 1
    for extent in reversed(extents):
        if block > 1 and block * extent * work_per_index > _GEMM_WORK:
            break
        block *= extent
    return max(block, 1)


def first_contraction(
    tensor: np.ndarray,
    factor: np.ndarray,
    mode: int,
    tracker=None,
    category: str = "ttm",
) -> np.ndarray:
    """Contract mode ``mode`` of ``tensor`` with factor matrix ``factor``.

    ``factor`` has shape ``(s_mode, R)``.  The result is the partially
    contracted MTTKRP intermediate with the contracted mode removed and a
    trailing rank axis appended:

    ``out[i_0, ..., i_{mode-1}, i_{mode+1}, ..., i_{N-1}, r]
    = sum_j tensor[..., j, ...] * factor[j, r]``.

    This is the expensive first-level kernel of every dimension tree
    (cost ``2 s^N R`` for an equidimensional tensor).  It runs as one batched
    GEMM ``factor^T @ X`` in which every matrix ``X`` of the batch is a view
    ``(s_mode, block)`` of the tensor — ``block`` consecutive trailing indices
    of a ``(lead, s_mode, trail)`` reshape, or, for the last mode, the
    transposed view of ``block`` consecutive rows — written straight into the
    rank-first buffer of :mod:`repro.tensor.intermediate`; no operand is
    transposed in memory.
    """
    tensor = np.asarray(tensor)
    factor = np.asarray(factor)
    mode = check_mode(mode, tensor.ndim)
    if factor.ndim != 2 or factor.shape[0] != tensor.shape[mode]:
        raise ValueError(
            f"factor shape {factor.shape} cannot contract mode {mode} of size {tensor.shape[mode]}"
        )
    if tracker is not None:
        start = time.perf_counter()
    # GEMM speed must not depend on the caller's factor strides: with an
    # F-ordered factor the last-mode product is the doubly transposed BLAS
    # variant, 1.7x slower at 32^4
    factor = np.ascontiguousarray(factor)
    shape = tensor.shape
    extent, rank = factor.shape
    lead = math.prod(shape[:mode])
    trail = math.prod(shape[mode + 1:])
    buffer = empty_rank_first(shape[:mode] + shape[mode + 1:], rank,
                              np.result_type(tensor, factor))
    if trail != 1:
        block = (_gemm_block(shape[mode + 1:], extent * rank)
                 if extent <= _STRIDED_ROWS else trail)
        blocks = tensor.reshape(lead, extent, trail // block, block).transpose(0, 2, 1, 3)
    else:
        block = _gemm_block(shape[:mode], extent * rank)
        blocks = tensor.reshape(1, lead // block, block, extent).transpose(0, 1, 3, 2)
    out = buffer.reshape(rank, *blocks.shape[:2], block).transpose(1, 2, 0, 3)
    np.matmul(factor.T, blocks, out=out)
    result = rank_last(buffer)
    if tracker is not None:
        _record(tracker, category, 2 * tensor.size * rank, tensor.size + result.size,
                time.perf_counter() - start)
    return result


def _trailing_rows(lead: int, trail: int, rank: int) -> int:
    """Rows of the ``(lead, trail)`` unfolding one GEMM of
    :func:`trailing_contraction` takes: all of them if one unpacked GEMM holds
    them, else as many whole :data:`_ROW_QUANTUM` as it holds (at least one row)."""
    fit = max(1, min(lead, _UNPACKED_GEMM // max(trail * rank, 1)))
    return fit if fit == lead or fit < _ROW_QUANTUM else fit - fit % _ROW_QUANTUM


def trailing_contraction(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    tracker=None,
) -> np.ndarray:
    """Contract the last ``len(factors)`` modes of ``tensor`` with their factors.

    ``factors`` are the ``(s_j, R)`` factor matrices of those modes, in mode
    order (at least two, and fewer than ``tensor.ndim``).  The result is the
    intermediate of the kept leading modes with a trailing rank axis,

    ``out[i_0, ..., i_{m-1}, r] = sum_{i_m..i_{N-1}} tensor[i_0, ..., i_{N-1}]
    * prod_j factors[j][i_{m+j}, r]``,

    equal to a :func:`first_contraction` of the last mode followed by
    :func:`~repro.tensor.ttv.contract_intermediate_mode` of the others.  It is
    computed as the partial MTTKRP ``X @ K`` of the ``(lead, trail)`` unfolding
    ``X`` with the ``(trail, R)`` Khatri-Rao product ``K`` of the factors
    (:func:`~repro.tensor.products.khatri_rao`): one batched GEMM ``K^T @ X_b^T`` over blocks
    ``X_b`` of :func:`_trailing_rows` consecutive rows, plus one GEMM for the
    rows left over, written into the rank-first buffer of
    :mod:`repro.tensor.intermediate`.

    The tracker is charged ``2 * prod(shape) * R`` flops under ``"ttm"`` (what
    the first-level TTM it replaces costs) and the Khatri-Rao product under
    ``"khatri_rao"``.
    """
    tensor = np.asarray(tensor)
    factors = [np.asarray(f) for f in factors]
    n_trailing = len(factors)
    if not 2 <= n_trailing < tensor.ndim:
        raise ValueError(
            f"cannot contract {n_trailing} trailing modes of an order-{tensor.ndim} tensor "
            "(need 2 <= k < order)"
        )
    kept_shape = tensor.shape[:-n_trailing]
    rank = factors[0].shape[-1]
    for factor, extent in zip(factors, tensor.shape[-n_trailing:]):
        if factor.shape != (extent, rank):
            raise ValueError(
                f"factor shape {factor.shape} cannot contract a mode of size {extent} "
                f"at rank {rank}"
            )
    if tracker is not None:
        start = time.perf_counter()
    # K is (trail, R), C-ordered: the GEMM takes K^T as BLAS's transposed
    # operand, 1.1 ms at 32^4, R = 16 against 1.7 ms with K stored rank-first
    krp = khatri_rao(factors, tracker=tracker)
    if tracker is not None:
        formed = time.perf_counter()
        tracker.add_seconds("khatri_rao", formed - start)
    lead = math.prod(kept_shape)
    trail = krp.shape[0]
    buffer = empty_rank_first(kept_shape, rank, np.result_type(tensor, krp))
    unfolding = tensor.reshape(lead, trail)
    out = buffer.reshape(rank, lead)
    block = _trailing_rows(lead, trail, rank)
    whole = lead - lead % block
    np.matmul(krp.T, unfolding[:whole].reshape(-1, block, trail).transpose(0, 2, 1),
              out=out[:, :whole].reshape(rank, -1, block).transpose(1, 0, 2))
    if whole < lead:
        np.matmul(krp.T, unfolding[whole:].T, out=out[:, whole:])
    result = rank_last(buffer)
    if tracker is not None:
        _record(tracker, "ttm", 2 * tensor.size * rank, tensor.size + result.size,
                time.perf_counter() - formed)
    return result
