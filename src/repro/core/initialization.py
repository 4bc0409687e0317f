"""Factor matrix initialization and the drivers' shared prologue.

The paper (Algorithms 1 and 2, line 2) initializes every factor with entries
drawn uniformly from ``[0, 1)``; every driver does the same.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backend import check_tensor
from repro.tensor.norms import tensor_norm
from repro.utils.random import as_rng
from repro.utils.validation import check_factor_matrices, check_rank

__all__ = ["check_tensor_norm", "init_factors", "prepare_als_inputs"]


def init_factors(
    shape: Sequence[int],
    rank: int,
    seed: int | np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Initial factor matrices for CP-ALS: entries uniform on ``[0, 1)``,
    one ``(shape[n], rank)`` matrix per mode, drawn from ``seed``."""
    rank = check_rank(rank)
    rng = as_rng(seed)
    shape = [int(s) for s in shape]
    if any(s <= 0 for s in shape):
        raise ValueError(f"mode sizes must be positive, got {shape}")
    return [rng.random((s, rank)) for s in shape]


def prepare_als_inputs(
    tensor,
    rank: int,
    min_order: int,
    dtype: np.dtype | str | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    seed: int | np.random.Generator | None = None,
):
    """Shared driver prologue: validated tensor, working factors, tensor norm.

    Used by :func:`~repro.core.loop.solve_sequential`, the body of every
    sequential driver, so tensor/backend validation, the
    dtype normalization of the factors and the zero-norm guard stay in one
    place.  Returns ``(tensor, factors, norm_t)`` where the tensor is dense or
    sparse (see :func:`repro.backend.check_tensor`), the factors are fresh
    arrays in the tensor's dtype, and ``norm_t > 0``.
    """
    tensor = check_tensor(tensor, min_order=min_order, dtype=dtype)
    if initial_factors is None:
        factors = [np.asarray(f, dtype=tensor.dtype)
                   for f in init_factors(tensor.shape, rank, seed=seed)]
    else:
        checked = check_factor_matrices(initial_factors, shape=tensor.shape,
                                        rank=rank, dtype=tensor.dtype)
        # defensively copy only factors that still alias the caller's arrays
        # (a dtype cast inside the validation already produced fresh ones)
        factors = [np.array(f, copy=True)
                   if np.may_share_memory(f, np.asarray(orig)) else f
                   for f, orig in zip(checked, initial_factors)]
    return tensor, factors, check_tensor_norm(tensor)


def check_tensor_norm(tensor) -> float:
    """The Frobenius norm of ``tensor`` (:func:`~repro.tensor.norms.tensor_norm`),
    refused when zero.

    Eq. (2) divides by ``||T||_F``: without this guard an all-zero tensor
    produces NaN/inf residuals and a meaningless ``converged`` flag.  Every
    driver calls it before its first sweep, the parallel ones before they
    partition the tensor.
    """
    norm_t = tensor_norm(tensor)
    if norm_t == 0.0:
        raise ValueError(
            "tensor has zero Frobenius norm; the relative residual of Eq. (2) "
            "is undefined for an all-zero tensor"
        )
    return norm_t
