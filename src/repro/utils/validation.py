"""Argument validation helpers shared across the package.

All public entry points validate user-supplied arguments through these helpers
so error messages are uniform and informative.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "check_dense_tensor",
    "check_factor_matrices",
    "check_positive_int",
    "check_probability",
    "check_rank",
    "check_mode",
]


def check_dense_tensor(
    tensor: np.ndarray,
    min_order: int = 1,
    name: str = "tensor",
    dtype: np.dtype | str | None = None,
) -> np.ndarray:
    """Validate that ``tensor`` is a dense floating point ndarray of order >= ``min_order``.

    Returns the tensor in C-contiguous layout (a view when possible, a copy
    otherwise) normalized to ``dtype``.  The default (``dtype=None``)
    normalizes to ``float64`` — float32/int inputs would otherwise silently
    promote inside every downstream contraction; pass an explicit floating
    ``dtype`` (e.g. ``np.float32``) to keep the computation in that precision.
    """
    arr = np.asarray(tensor)
    if arr.ndim < min_order:
        raise ValueError(
            f"{name} must have order >= {min_order}, got order {arr.ndim}"
        )
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    target = np.dtype(np.float64 if dtype is None else dtype)
    if not np.issubdtype(target, np.floating):
        raise ValueError(f"dtype must be a floating type, got {target}")
    with np.errstate(over="ignore"):  # overflow is detected explicitly below
        arr = np.ascontiguousarray(arr, dtype=target)
    # validate AFTER the cast: narrowing (e.g. float64 -> float32) can
    # overflow finite inputs to inf
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_factor_matrices(
    factors: Sequence[np.ndarray],
    shape: Sequence[int] | None = None,
    rank: int | None = None,
    name: str = "factors",
    dtype: np.dtype | str | None = None,
) -> list[np.ndarray]:
    """Validate a list of CP factor matrices.

    Each factor must be a 2-D array with the same number of columns.  When
    ``shape`` is given, there must be one factor per mode and factor ``i``
    must have ``shape[i]`` rows; when ``rank``
    is given, every factor must have exactly ``rank`` columns.  Factors are
    cast to ``dtype`` (``float64`` when omitted, matching
    :func:`check_dense_tensor`'s default normalization).
    """
    if len(factors) == 0:
        raise ValueError(f"{name} must contain at least one factor matrix")
    if shape is not None and len(factors) != len(shape):
        raise ValueError(
            f"expected {len(shape)} {name}, one per mode, got {len(factors)}"
        )
    target = np.dtype(np.float64 if dtype is None else dtype)
    if not np.issubdtype(target, np.floating):
        raise ValueError(f"dtype must be a floating type, got {target}")
    out: list[np.ndarray] = []
    ranks = set()
    for i, factor in enumerate(factors):
        arr = np.asarray(factor, dtype=target)
        if arr.ndim != 2:
            raise ValueError(f"{name}[{i}] must be a matrix, got ndim={arr.ndim}")
        if shape is not None and arr.shape[0] != shape[i]:
            raise ValueError(
                f"{name}[{i}] has {arr.shape[0]} rows but mode {i} has size {shape[i]}"
            )
        ranks.add(arr.shape[1])
        out.append(np.ascontiguousarray(arr))
    if len(ranks) != 1:
        raise ValueError(f"{name} have inconsistent ranks: {sorted(ranks)}")
    found_rank = ranks.pop()
    if rank is not None and found_rank != rank:
        raise ValueError(f"{name} have rank {found_rank}, expected {rank}")
    return out


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_rank(rank: int) -> int:
    """Validate a CP rank."""
    return check_positive_int(rank, "rank")


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_mode(mode: int, order: int) -> int:
    """Validate a mode index against a tensor order (supports negative indexing)."""
    if not isinstance(mode, (int, np.integer)) or isinstance(mode, bool):
        raise TypeError(f"mode must be an integer, got {type(mode).__name__}")
    if mode < -order or mode >= order:
        raise ValueError(f"mode {mode} out of range for order-{order} tensor")
    return int(mode) % order
