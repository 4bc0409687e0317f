"""Gram matrices, Hadamard chains and the quadratic subproblem solves.

Each ALS mode update solves ``A^(n) Gamma^(n) = M^(n)`` where ``Gamma^(n)`` is
the Hadamard product of the other Gram matrices (Eq. 1) and ``M^(n)`` the
MTTKRP.  ``Gamma^(n)`` is symmetric positive semi-definite; the solver first
attempts a Cholesky factorization and falls back to the pseudo-inverse when
the chain is numerically singular, which matches the ``M^(n) Gamma^(n)+``
update written in the paper.

Everything here is ``R x R`` algebra of one fixed form, called several times
per mode update of every driver, so each body is the BLAS/LAPACK call it is:
:func:`gram_matrix` is ``A.T @ A`` and :func:`solve_normal_equations` is
LAPACK ``potrf`` + ``potrs``.  None of them goes through the einsum engine or
SciPy's ``cho_factor``/``cho_solve`` wrappers, whose per-call parsing and
checking (~20 us) is ten times the arithmetic at these sizes
(``docs/engines.rst``, "The approximated sweep").
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from repro.tensor.products import hadamard_all_but

__all__ = ["gram_matrix", "gamma_chain", "solve_normal_equations"]


def gram_matrix(factor: np.ndarray, tracker=None, category: str = "others") -> np.ndarray:
    """Gram matrix ``S = A^T A`` of a factor."""
    factor = np.asarray(factor)
    if tracker is None:
        return factor.T @ factor
    start = time.perf_counter()
    gram = factor.T @ factor
    elapsed = time.perf_counter() - start
    rows, rank = factor.shape
    tracker.add_flops(category, 2 * rows * rank * rank)
    tracker.add_seconds(category, elapsed)
    return gram


def gamma_chain(grams: Sequence[np.ndarray], skip: int, tracker=None) -> np.ndarray:
    """``Gamma^(skip)`` — the Hadamard chain of all Gram matrices except ``skip`` (Eq. 1)."""
    if tracker is None:
        return hadamard_all_but(grams, skip)
    start = time.perf_counter()
    gamma = hadamard_all_but(grams, skip, tracker=tracker, category="hadamard")
    tracker.add_seconds("hadamard", time.perf_counter() - start)
    return gamma


def solve_normal_equations(
    gamma: np.ndarray,
    rhs: np.ndarray,
    tracker=None,
    category: str = "solve",
    ridge: float = 0.0,
) -> np.ndarray:
    """Solve ``X @ gamma = rhs`` for ``X`` (i.e. ``X = rhs @ gamma^+``).

    Parameters
    ----------
    gamma:
        Symmetric positive semi-definite ``R x R`` matrix.
    rhs:
        ``(rows, R)`` right-hand side (the MTTKRP result).
    ridge:
        Optional Tikhonov term added to the diagonal (relative to the mean
        diagonal magnitude) before factorizing; defaults to 0.

    The solve runs in float64 whatever the inputs' dtype (the drivers cast the
    result back to their working dtype).  A ``gamma`` that Cholesky rejects is
    either numerically rank deficient — then the pseudo-inverse is used, as
    the update rule of the paper states — or holds a NaN/inf, which raises a
    ``ValueError`` instead of returning an all-NaN factor.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ValueError(f"gamma must be square, got shape {gamma.shape}")
    if rhs.ndim != 2 or rhs.shape[1] != gamma.shape[0]:
        raise ValueError(
            f"rhs shape {rhs.shape} incompatible with gamma shape {gamma.shape}"
        )
    rank = gamma.shape[0]
    rows = rhs.shape[0]
    if rank == 0:
        return rhs.copy()  # nothing to solve, and LAPACK takes no empty matrix
    if tracker is not None:
        start = time.perf_counter()
    shifted = gamma
    if ridge != 0.0:
        scale = float(np.mean(np.abs(np.diag(gamma)))) or 1.0
        shifted = gamma + ridge * scale * np.eye(rank)
    chol, info = dpotrf(shifted, lower=True, clean=False)
    # OpenBLAS's potrf does not test for NaN or inf: either in Gamma comes
    # back as info == 0 and a non-finite factor.  Every NaN the factorization
    # reads reaches the last diagonal entry (0 * NaN is NaN), and so does an
    # inf that fills a row and column, as one out of a Gram matrix does
    # (inf / inf is NaN), so that one scalar tells.
    factorized = info == 0 and 0.0 < chol[-1, -1] < np.inf
    if factorized:
        solved, info = dpotrs(chol, rhs.T, lower=True)
        solved = solved.T
    if info < 0:
        raise ValueError(f"LAPACK rejected argument {-info} of the Cholesky solve")
    if not factorized:
        # not positive definite.  The scan for NaN/inf costs nothing on the
        # hot path because only a failed factorization reaches it.
        if not np.isfinite(gamma).all():
            raise ValueError(
                "Gamma is non-finite (NaN or inf in the Gram matrices): the "
                "factors or the tensor hold non-finite values"
            )
        # Gamma is numerically rank deficient (e.g. collinear factor columns):
        # use the pseudo-inverse exactly as the update rule of the paper states.
        solved = rhs @ np.linalg.pinv(gamma)
    if tracker is not None:
        tracker.add_flops(category, rank**3 // 3 + 2 * rows * rank * rank)
        tracker.add_seconds(category, time.perf_counter() - start)
    return solved
