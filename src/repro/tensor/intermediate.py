"""Memory layout of rank-carrying intermediates — decided here, nowhere else.

A partially contracted MTTKRP intermediate ``M^(S)`` has the public shape
``(kept modes..., R)``: that is what the dimension trees cache, what
:func:`repro.tensor.ttv.contract_intermediate_mode` accepts and what the
pairwise operators expose.  In memory the dense tree kernels store it
**rank-first**: a C-contiguous ``(R, kept modes...)`` buffer, handed out as the
transposed ``(kept modes..., R)`` view.

Why rank-first: slice ``r`` of the buffer is then an ordinary C-contiguous
tensor, so the mTTV of every axis is a BLAS matrix-vector product per rank
index (no strided gather, no dependence of the inner loop length on ``R``),
and the first-level TTM writes it with one GEMM per block, ``A^T`` times a
view of the tensor, through ``out=``.  Rank-last would make the TTM's output
rows contiguous (about 0.15 ms faster per TTM at 32^4, R = 16) but leaves the
mTTV without a BLAS form (0.15-0.2 ms slower per second-level step, 2x at
``R = 8``), and a sweep does more of the second than of the first; the
harness comparison is in ``docs/engines.rst`` ("Dense hot loops").

The kernels accept any array of the public shape — a foreign layout only
costs the copy ``reshape`` makes — and always return this one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["empty_rank_first", "rank_first", "rank_last"]


def empty_rank_first(kept_shape: Sequence[int], rank: int, dtype) -> np.ndarray:
    """Uninitialised ``(R, kept modes...)`` buffer of a new intermediate."""
    return np.empty((rank, *kept_shape), dtype=dtype)


def rank_first(intermediate: np.ndarray) -> np.ndarray:
    """``(R, kept modes...)`` view of a public ``(kept modes..., R)`` array."""
    last = intermediate.ndim - 1
    return intermediate.transpose(last, *range(last))


def rank_last(buffer: np.ndarray) -> np.ndarray:
    """Public ``(kept modes..., R)`` view of a ``(R, kept modes...)`` buffer."""
    return buffer.transpose(*range(1, buffer.ndim), 0)
