"""Norms, inner products, decomposition residual and fitness.

The relative residual is Eq. (2) of the paper,

``r = ||T - [[A^(1), ..., A^(N)]]||_F / ||T||_F``

and :func:`residual_from_mttkrp` is the amortized evaluation of Eq. (3) that
reuses the last-mode MTTKRP ``M^(N)`` and Hadamard chain ``Gamma^(N)`` already
available at the end of an ALS sweep, so no extra pass over the tensor is
needed.  (Eq. (3) as printed in the paper omits the square on ``||T||_F``
inside the square root; the standard identity

``||T - Ttilde||_F^2 = ||T||_F^2 + <Gamma^(N), A^(N)^T A^(N)> - 2 <M^(N), A^(N)>``

is implemented here, which is what the paper's referenced implementations
compute.)

The residual is evaluated once per sweep of every driver on ``R x R`` and
``s x R`` operands, so it is plain NumPy: Hadamard products and one BLAS dot
product (:func:`inner_product`), nothing through the einsum engine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.products import hadamard_all_but

__all__ = [
    "tensor_norm",
    "inner_product",
    "relative_residual",
    "residual_from_mttkrp",
    "fitness",
    "cp_norm_squared",
    "cp_inner_with_tensor",
]


def tensor_norm(tensor) -> float:
    """Frobenius norm of a dense tensor or any backend exposing ``.norm()``.

    Sparse inputs (:class:`repro.sparse.CooTensor`) are handled without
    densification through their own ``norm`` method.
    """
    if not isinstance(tensor, np.ndarray):
        norm = getattr(tensor, "norm", None)
        if callable(norm):
            return float(norm())
    # order="K" flattens in memory order: a view, not a copy, for any array
    # contiguous in some axis order (the norm does not care which)
    return float(np.linalg.norm(np.asarray(tensor).ravel(order="K")))


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product of two equal-shaped (real) arrays: one BLAS dot."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"inner_product shapes differ: {a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def cp_norm_squared(factors: Sequence[np.ndarray], grams: Sequence[np.ndarray] | None = None) -> float:
    """``||[[A^(1), ..., A^(N)]]||_F^2`` from Gram matrices only.

    Equals ``sum over (r, r') of prod_n S^(n)(r, r')`` — no dense
    reconstruction needed.
    """
    if grams is None:
        grams = [np.asarray(f).T @ np.asarray(f) for f in factors]
    prod = np.ones_like(np.asarray(grams[0]))
    for g in grams:
        prod = prod * np.asarray(g)
    return float(max(prod.sum(), 0.0))


def cp_inner_with_tensor(mttkrp_last: np.ndarray, factor_last: np.ndarray) -> float:
    """``<T, [[A^(1), ..., A^(N)]]>`` given the last-mode MTTKRP ``M^(N)``."""
    return inner_product(mttkrp_last, factor_last)


def relative_residual(tensor: np.ndarray, factors: Sequence[np.ndarray]) -> float:
    """Exact relative residual of Eq. (2), forming the dense reconstruction."""
    from repro.tensor.cp_format import reconstruct  # local import avoids a cycle

    if not isinstance(tensor, np.ndarray) and hasattr(tensor, "to_dense"):
        tensor = tensor.to_dense()
    tensor = np.asarray(tensor)
    approx = reconstruct(factors, shape=tensor.shape)
    denom = tensor_norm(tensor)
    if denom == 0.0:
        raise ValueError("relative residual is undefined for an all-zero tensor")
    return float(np.linalg.norm((tensor - approx).ravel()) / denom)


def residual_from_mttkrp(
    tensor_norm_value: float,
    mttkrp_last: np.ndarray,
    factor_last: np.ndarray,
    grams: Sequence[np.ndarray],
    last_mode: int | None = None,
) -> float:
    """Amortized relative residual, Eq. (3) of the paper.

    Parameters
    ----------
    tensor_norm_value:
        Pre-computed ``||T||_F``.
    mttkrp_last:
        The MTTKRP ``M^(n)`` for the mode updated last in the sweep.
    factor_last:
        The corresponding factor ``A^(n)`` *after* its update.
    grams:
        All Gram matrices ``S^(i) = A^(i)^T A^(i)`` with ``S^(n)`` already
        refreshed for the updated factor.
    last_mode:
        Index of the mode updated last (defaults to the final mode).
    """
    grams = [np.asarray(g) for g in grams]
    if last_mode is None:
        last_mode = len(grams) - 1
    if tensor_norm_value <= 0.0:
        raise ValueError("tensor norm must be positive")
    gamma_last = hadamard_all_but(grams, skip=last_mode)
    model_norm_sq = float(max((gamma_last * grams[last_mode]).sum(), 0.0))
    cross = cp_inner_with_tensor(mttkrp_last, factor_last)
    residual_sq = tensor_norm_value**2 + model_norm_sq - 2.0 * cross
    # numerical / approximation safeguard: by Cauchy-Schwarz the residual can
    # never be smaller than | ||T|| - ||Ttilde|| |; this keeps the estimate
    # meaningful when ``mttkrp_last`` is itself an approximation (PP sweeps)
    lower_bound = (tensor_norm_value - float(np.sqrt(model_norm_sq))) ** 2
    residual_sq = max(residual_sq, lower_bound, 0.0)
    return float(np.sqrt(residual_sq) / tensor_norm_value)


def fitness(tensor: np.ndarray, factors: Sequence[np.ndarray]) -> float:
    """Fitness ``f = 1 - r`` (Section V-C of the paper)."""
    return 1.0 - relative_residual(tensor, factors)
