"""Pairwise-perturbation corrections (Eqs. 5-8 of the paper).

The PP approximated step replaces the exact MTTKRP by

``Mtilde^(n) = M_p^(n) + sum_{i != n} U^(n,i) + V^(n)``

where the first-order corrections ``U^(n,i)`` contract the pairwise operators
``M_p^(n,i)`` against the factor steps ``dA^(i)`` (Eq. 6) and the second-order
correction ``V^(n)`` only involves ``R x R`` Hadamard products and one small
matrix product (Eq. 7).

What runs where: the sum ``M_p^(n) + sum_i U^(n,i)`` is assembled by
:meth:`repro.trees.pp_operators.PairwiseOperators.first_order_mttkrp`, the one
place that knows how the operators are laid out (the einsum reference for a
single ``U^(n,i)`` is :func:`repro.tensor.mttkrp.partial_mttkrp` of the pair
contracted with ``dA^(i)``);
:func:`second_order_accumulator` is the one spelling of Eq. (7)'s ``R x R``
sum, shared with the parallel driver; :func:`delta_gram` and the last product
of Eq. (7) are plain ``@`` (BLAS), not einsum-engine calls — at these sizes
the engine's per-call parsing is ten times the arithmetic.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

__all__ = [
    "delta_gram",
    "fused_approx_update",
    "second_order_accumulator",
    "second_order_correction",
    "pp_step_within_tolerance",
]


def delta_gram(factor: np.ndarray, delta_factor: np.ndarray, tracker=None) -> np.ndarray:
    """``dS^(i) = A^(i)^T dA^(i)`` (Eq. 8)."""
    factor = np.asarray(factor)
    delta_factor = np.asarray(delta_factor)
    if factor.shape != delta_factor.shape:
        raise ValueError(
            f"factor and delta factor shapes differ: {factor.shape} vs {delta_factor.shape}"
        )
    if tracker is None:
        return factor.T @ delta_factor
    start = time.perf_counter()
    out = factor.T @ delta_factor
    elapsed = time.perf_counter() - start
    rows, rank = factor.shape
    tracker.add_flops("others", 2 * rows * rank * rank)
    tracker.add_seconds("others", elapsed)
    return out


def fused_approx_update(
    operators,
    mode: int,
    factor: np.ndarray,
    delta_factors: Sequence[np.ndarray],
    grams: Sequence[np.ndarray],
    delta_grams: Sequence[np.ndarray],
    gamma: np.ndarray,
    rule,
    tracker=None,
    out: np.ndarray | None = None,
    *,
    kernel=None,  # only None: the harness's layers.py passes it; ROADMAP 1(d) deletes both
) -> tuple[np.ndarray, np.ndarray]:
    """One fused PP approximated step for ``mode``: assemble Eq. (5) and solve.

    The approximated MTTKRP ``Mtilde^(mode)`` is built in a single workspace:
    :meth:`~repro.trees.pp_operators.PairwiseOperators.first_order_mttkrp`
    writes ``M_p^(mode) + sum_i U^(mode,i)`` (Eq. 6) into it, the second-order
    correction ``V^(mode)`` (Eq. 7) is added, and the mode's normal equations
    are solved immediately through ``rule.update_rows`` against ``gamma``.
    Pass a preallocated ``out`` (shape ``(s_mode, R)``) to reuse the workspace
    across sweeps.

    Returns ``(updated_factor, mtilde)``; ``mtilde`` aliases ``out`` when one
    was given.
    """
    if kernel is not None:
        raise TypeError(f"fused_approx_update accepts only kernel=None, got {kernel!r}")
    out = operators.first_order_mttkrp(mode, delta_factors, out=out,
                                       tracker=tracker)
    out += second_order_correction(mode, factor, grams, delta_grams, tracker=tracker)
    updated = rule.update_rows(mode, gamma, out, factor, tracker=tracker)
    return updated, out


def second_order_accumulator(
    mode: int,
    grams: Sequence[np.ndarray],
    delta_grams: Sequence[np.ndarray],
) -> tuple[np.ndarray, int]:
    """The ``R x R`` sum of Eq. (7) and the Hadamard flops the model charges for it.

    ``sum_{i<j, i,j != n} dS^(i) * dS^(j) * (*_{k != i,j,n} S^(k))`` is the
    ``t^2`` coefficient of ``prod_{k != n} (S^(k) + t dS^(k))``, so it is
    accumulated factor by factor, carrying the product truncated after
    ``t^2``: ``O(N)`` Hadamard products where the sum written out takes
    ``O(N^3)``.  The flop count returned is that of the written-out sum
    (``N - 1`` products per pair), which is what Table I prices.
    """
    order = len(grams)
    if len(delta_grams) != order:
        raise ValueError("grams and delta_grams must have equal length")
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range for order {order}")
    others = [k for k in range(order) if k != mode]
    if len(others) < 2:
        raise ValueError("the second-order correction needs at least three modes")
    # coefficients of 1, t and t^2 of the product over the modes seen so far
    zeroth = np.asarray(grams[others[0]])
    first = np.asarray(delta_grams[others[0]])
    second = None
    for position, k in enumerate(others[1:], start=2):
        gram = np.asarray(grams[k])
        delta = np.asarray(delta_grams[k])
        second = first * delta if second is None else second * gram + first * delta
        if position < len(others):
            first = first * gram + zeroth * delta
            zeroth = zeroth * gram
    n_pairs = len(others) * (len(others) - 1) // 2
    return second, n_pairs * (order - 1) * second.size


def second_order_correction(
    mode: int,
    factor: np.ndarray,
    grams: Sequence[np.ndarray],
    delta_grams: Sequence[np.ndarray],
    tracker=None,
) -> np.ndarray:
    """``V^(n)`` of Eq. (7): the second-order subproblem correction.

    ``V^(n) = A^(n) ( sum_{i<j, i,j != n} dS^(i) * dS^(j) * (*_{k != i,j,n} S^(k)) )``

    All matrices involved are ``R x R`` except the final product with
    ``A^(n)``, so the cost is ``O(N R^2 + s R^2)`` per mode.
    """
    factor = np.asarray(factor)
    if tracker is not None:
        start = time.perf_counter()
    accumulator, hadamard_flops = second_order_accumulator(mode, grams, delta_grams)
    correction = factor @ accumulator
    if tracker is not None:
        elapsed = time.perf_counter() - start
        rank = factor.shape[1]
        tracker.add_flops("hadamard", hadamard_flops)
        tracker.add_flops("others", 2 * factor.shape[0] * rank * rank)
        tracker.add_seconds("hadamard", elapsed / 2.0)
        tracker.add_seconds("others", elapsed / 2.0)
    return correction


def pp_step_within_tolerance(
    factors: Sequence[np.ndarray],
    delta_factors: Sequence[np.ndarray],
    pp_tol: float,
) -> bool:
    """Condition of Algorithm 2 (lines 5 and 10).

    True when every factor's step is relatively small,
    ``||dA^(i)||_F < pp_tol * ||A^(i)||_F`` for all ``i``.
    """
    if len(factors) != len(delta_factors):
        raise ValueError("factors and delta_factors must have equal length")
    for factor, delta in zip(factors, delta_factors):
        if np.linalg.norm(delta) >= pp_tol * np.linalg.norm(factor):
            return False
    return True
