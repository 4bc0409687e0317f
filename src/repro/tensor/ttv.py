"""Tensor-times-vector (TTV) and batched multi-TTV kernels.

The batched multi-TTV (``mTTV`` in the paper) is the workhorse of dimension
trees below the first level: a partially contracted MTTKRP intermediate
``M^(S)`` carries a trailing rank axis, and contracting one more mode ``j`` of
it against factor ``A^(j)`` pairs column ``r`` of the factor with slice ``r``
of the intermediate — i.e. ``R`` independent TTVs batched together.
:func:`contract_intermediate_mode` runs them as one batched BLAS matrix-vector
product on the rank-first buffer of :mod:`repro.tensor.intermediate`
(``docs/engines.rst``, "Dense hot loops"); the plain :func:`ttv` is an einsum
through the process-wide plan cache of :mod:`repro.contract`.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from repro.contract import contract, subscript_letters
from repro.tensor.intermediate import empty_rank_first, rank_first, rank_last
from repro.utils.validation import check_mode

__all__ = ["ttv", "multi_ttv", "contract_intermediate_mode"]


def _record(tracker, category: str, flops: int, words: int = 0, seconds: float = 0.0) -> None:
    if tracker is not None:
        tracker.add_flops(category, flops)
        if words:
            tracker.add_vertical_words(words)
        if seconds:
            tracker.add_seconds(category, seconds)


def ttv(
    tensor: np.ndarray,
    vector: np.ndarray,
    mode: int,
    tracker=None,
    category: str = "mttv",
) -> np.ndarray:
    """Contract mode ``mode`` of ``tensor`` with ``vector`` (removing the mode)."""
    tensor = np.asarray(tensor)
    vector = np.asarray(vector)
    mode = check_mode(mode, tensor.ndim)
    if vector.ndim != 1 or vector.shape[0] != tensor.shape[mode]:
        raise ValueError(
            f"vector of length {vector.shape} cannot contract mode {mode} of size {tensor.shape[mode]}"
        )
    subs = subscript_letters(tensor.ndim)
    spec = "{},{}->{}".format(
        "".join(subs), subs[mode], "".join(s for i, s in enumerate(subs) if i != mode)
    )
    start = time.perf_counter()
    out = contract(spec, tensor, vector)
    elapsed = time.perf_counter() - start
    _record(tracker, category, 2 * tensor.size, tensor.size + out.size, elapsed)
    return out


def multi_ttv(
    tensor: np.ndarray,
    vectors: Sequence[np.ndarray],
    modes: Sequence[int],
    tracker=None,
    category: str = "mttv",
) -> np.ndarray:
    """Contract several modes with vectors, highest mode first so indices stay valid."""
    if len(vectors) != len(modes):
        raise ValueError("multi_ttv requires one vector per mode")
    order = np.asarray(tensor).ndim
    normalized = [check_mode(m, order) for m in modes]
    if len(set(normalized)) != len(normalized):
        raise ValueError("multi_ttv modes must be distinct")
    pairs = sorted(zip(normalized, vectors), key=lambda p: -p[0])
    out = np.asarray(tensor)
    for mode, vec in pairs:
        out = ttv(out, vec, mode, tracker=tracker, category=category)
    return out


def contract_intermediate_mode(
    intermediate: np.ndarray,
    factor: np.ndarray,
    axis: int,
    tracker=None,
    category: str = "mttv",
) -> np.ndarray:
    """Batched multi-TTV step on a rank-carrying intermediate.

    ``intermediate`` has shape ``(d_0, ..., d_{k-1}, R)`` with the trailing
    axis indexing the CP rank.  Contracting tensor axis ``axis`` (one of the
    leading ``k`` axes, of size ``s_j``) with factor ``A^(j)`` of shape
    ``(s_j, R)`` computes

    ``out[..., r] = sum_y intermediate[..., y, ..., r] * factor[y, r]``

    i.e. the mTTV kernel of the paper.  Cost: ``2 * intermediate.size`` flops.

    Slice ``r`` of the rank-first buffer is a ``(lead, s_j, trail)`` tensor, so
    the step is one batched matrix-vector product: column ``r`` of the factor
    times each ``(s_j, trail)`` matrix, or, for the last axis, the
    ``(lead, s_j)`` matrix times the column.
    """
    intermediate = np.asarray(intermediate)
    factor = np.asarray(factor)
    if intermediate.ndim < 2:
        raise ValueError("intermediate must carry at least one tensor mode plus the rank axis")
    n_tensor_axes = intermediate.ndim - 1
    if not 0 <= axis < n_tensor_axes:
        raise ValueError(
            f"axis {axis} out of range; intermediate has {n_tensor_axes} tensor axes"
        )
    shape = intermediate.shape
    rank = shape[-1]
    extent = shape[axis]
    if factor.shape != (extent, rank):
        raise ValueError(
            f"factor shape {factor.shape} incompatible with intermediate axis {axis} "
            f"(size {extent}) and rank {rank}"
        )
    if tracker is not None:
        start = time.perf_counter()
    lead = math.prod(shape[:axis])
    trail = math.prod(shape[axis + 1:-1])
    buffer = empty_rank_first(shape[:axis] + shape[axis + 1:-1], rank,
                              np.result_type(intermediate, factor))
    slices = rank_first(intermediate)
    if trail != 1:
        np.matmul(factor.T[:, None, None, :], slices.reshape(rank, lead, extent, trail),
                  out=buffer.reshape(rank, lead, 1, trail))
    else:
        np.matmul(slices.reshape(rank, lead, extent), factor.T[:, :, None],
                  out=buffer.reshape(rank, lead, 1))
    result = rank_last(buffer)
    if tracker is not None:
        _record(tracker, category, 2 * intermediate.size, intermediate.size + result.size,
                time.perf_counter() - start)
    return result
