"""Khatri-Rao, Kronecker and Hadamard products.

The Khatri-Rao convention matches :func:`repro.tensor.unfold.unfold`: rows of
``khatri_rao([A_{j1}, ..., A_{jm}])`` are indexed by the multi-index
``(i_{j1}, ..., i_{jm})`` in C order (the last input varies fastest), so the
MTTKRP identity ``unfold(T, n) @ khatri_rao(others)`` holds with the other
factors listed in increasing mode order.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

__all__ = ["khatri_rao", "kronecker", "hadamard_chain", "hadamard_all_but"]


def khatri_rao(matrices: Sequence[np.ndarray], tracker=None,
               category: str = "khatri_rao") -> np.ndarray:
    """Column-wise Khatri-Rao product of ``matrices``.

    Built by broadcasting, one multiply per element of each partial product,
    into a C-ordered result (a GEMM takes it as BLAS's transposed operand).

    Parameters
    ----------
    matrices:
        Sequence of 2-D arrays, all with the same number of columns ``R``.

    Returns
    -------
    ndarray of shape ``(prod_i rows_i, R)``.
    """
    mats = [np.asarray(m) for m in matrices]
    if len(mats) == 0:
        raise ValueError("khatri_rao requires at least one matrix")
    ranks = {m.shape[1] for m in mats}
    if len(ranks) != 1:
        raise ValueError(f"khatri_rao inputs have mismatching ranks {sorted(ranks)}")
    rank = ranks.pop()
    if len(mats) == 1:
        return mats[0].copy()
    out = np.ascontiguousarray(mats[0])
    for m in mats[1:]:
        out = (out[:, None, :] * np.ascontiguousarray(m)).reshape(-1, rank)
        if tracker is not None:
            tracker.add_flops(category, out.size)
    return out


def kronecker(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices (left-to-right)."""
    mats = [np.asarray(m) for m in matrices]
    if len(mats) == 0:
        raise ValueError("kronecker requires at least one matrix")
    return reduce(np.kron, mats)


def hadamard_chain(matrices: Sequence[np.ndarray], tracker=None, category: str = "hadamard") -> np.ndarray:
    """Element-wise (Hadamard) product of a sequence of equal-shaped matrices."""
    mats = [np.asarray(m) for m in matrices]
    if len(mats) == 0:
        raise ValueError("hadamard_chain requires at least one matrix")
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise ValueError(f"hadamard_chain inputs have mismatching shapes {sorted(shapes)}")
    out = mats[0].copy()
    for m in mats[1:]:
        out *= m
        if tracker is not None:
            tracker.add_flops(category, m.size)
    return out


def hadamard_all_but(
    matrices: Sequence[np.ndarray],
    skip: int,
    tracker=None,
    category: str = "hadamard",
) -> np.ndarray:
    """Hadamard product of all ``matrices`` except index ``skip``.

    This is the ``Gamma^(n)`` chain of Eq. (1) in the paper when applied to the
    Gram matrices ``S^(i) = A^(i)^T A^(i)``.  With a single input matrix the
    result is the all-ones matrix of the same shape (empty product).
    """
    mats = [np.asarray(m) for m in matrices]
    n = len(mats)
    if not 0 <= skip < n:
        raise ValueError(f"skip index {skip} out of range for {n} matrices")
    selected = [m for i, m in enumerate(mats) if i != skip]
    if not selected:
        return np.ones_like(mats[skip])
    return hadamard_chain(selected, tracker=tracker, category=category)
