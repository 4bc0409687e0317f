"""MTTKRP (matricized tensor times Khatri-Rao product) reference kernels.

These are the *unamortized* reference implementations: :func:`mttkrp` contracts
the input tensor with all but one factor via a single ``einsum`` (the
correctness oracle used throughout the test suite), and
:func:`mttkrp_unfolding` is the textbook ``T_(n) @ khatri_rao(...)`` form (the
"TensorLy-style" baseline).  The amortized engines (dimension tree, MSDT, PP)
live in :mod:`repro.trees` and are validated against these.

:func:`partial_mttkrp` computes the partially contracted intermediates
``M^(i1,...,im)`` of Eq. (4) in the paper, with the kept modes as leading axes
and a trailing rank axis.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.contract import contract
from repro.tensor.products import khatri_rao
from repro.tensor.unfold import unfold
from repro.utils.validation import check_factor_matrices, check_mode

__all__ = ["mttkrp", "mttkrp_unfolding", "partial_mttkrp"]

_LETTERS = "abcdefghijklmnopqstuvwxyz"  # 'r' reserved for the rank axis


def _mode_subscripts(order: int) -> list[str]:
    if order > len(_LETTERS):
        raise ValueError(f"tensors of order > {len(_LETTERS)} are not supported")
    return list(_LETTERS[:order])


def _working_dtype(tensor: np.ndarray):
    """Factor dtype matching the tensor: its own floating dtype, else the
    float64 normalization default (so float32 runs stay float32 end to end)."""
    return tensor.dtype if np.issubdtype(tensor.dtype, np.floating) else None


def mttkrp(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    tracker=None,
    category: str = "mttkrp",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact MTTKRP ``M^(mode) = T_(mode) P^(mode)`` computed with one einsum.

    Cost (recorded when a ``tracker`` is given): ``2 * prod(shape) * R`` flops,
    the single-MTTKRP leading-order cost quoted in Section II-B of the paper.
    """
    tensor = np.asarray(tensor)
    order = tensor.ndim
    mode = check_mode(mode, order)
    factors = check_factor_matrices(factors, shape=tensor.shape,
                                    dtype=_working_dtype(tensor))
    rank = factors[0].shape[1]

    subs = _mode_subscripts(order)
    operands: list[np.ndarray] = [tensor]
    spec_parts = ["".join(subs)]
    for j in range(order):
        if j == mode:
            continue
        operands.append(factors[j])
        spec_parts.append(subs[j] + "r")
    spec = ",".join(spec_parts) + "->" + subs[mode] + "r"
    start = time.perf_counter()
    out = contract(spec, *operands, out=out)
    elapsed = time.perf_counter() - start
    if tracker is not None:
        tracker.add_flops(category, 2 * tensor.size * rank)
        tracker.add_vertical_words(tensor.size + out.size)
        tracker.add_seconds(category, elapsed)
    return out


def mttkrp_unfolding(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    tracker=None,
    category: str = "mttkrp",
) -> np.ndarray:
    """Textbook MTTKRP via explicit unfolding and Khatri-Rao product.

    This forms the full ``(prod_{m != mode} s_m) x R`` Khatri-Rao matrix and is
    therefore only suitable for small problems; it mirrors what a generic
    tensor toolbox (e.g. TensorLy's reference backend) does and serves as the
    unamortized baseline in the benchmarks.
    """
    tensor = np.asarray(tensor)
    order = tensor.ndim
    mode = check_mode(mode, order)
    factors = check_factor_matrices(factors, shape=tensor.shape,
                                    dtype=_working_dtype(tensor))
    others = [factors[j] for j in range(order) if j != mode]
    kr = khatri_rao(others, tracker=tracker, category=category)
    out = contract("ab,br->ar", unfold(tensor, mode), kr)
    if tracker is not None:
        rank = factors[0].shape[1]
        tracker.add_flops(category, 2 * tensor.size * rank)
        tracker.add_vertical_words(tensor.size + kr.size + out.size)
    return out


def partial_mttkrp(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    keep_modes: Sequence[int],
    tracker=None,
    category: str = "mttkrp",
) -> np.ndarray:
    """Partially contracted MTTKRP intermediate ``M^(i1,...,im)`` (Eq. 4).

    Contracts the tensor with the factor matrices of every mode *not* in
    ``keep_modes``; the result has the kept modes (in increasing order) as
    leading axes and the CP rank as the trailing axis.  With
    ``keep_modes == [n]`` this equals :func:`mttkrp`; with
    ``keep_modes == range(N)`` the tensor is returned broadcast against an
    all-ones rank axis (the paper's convention that ``M^(1,...,N)`` is the
    input tensor itself).
    """
    tensor = np.asarray(tensor)
    order = tensor.ndim
    factors = check_factor_matrices(factors, shape=tensor.shape,
                                    dtype=_working_dtype(tensor))
    keep = sorted({check_mode(m, order) for m in keep_modes})
    if len(keep) != len(list(keep_modes)):
        raise ValueError(f"keep_modes contains duplicates: {keep_modes}")
    rank = factors[0].shape[1]
    contracted = [j for j in range(order) if j not in keep]
    if not contracted:
        return np.broadcast_to(tensor[..., None], tensor.shape + (rank,)).copy()

    subs = _mode_subscripts(order)
    operands: list[np.ndarray] = [tensor]
    spec_parts = ["".join(subs)]
    for j in contracted:
        operands.append(factors[j])
        spec_parts.append(subs[j] + "r")
    out_spec = "".join(subs[m] for m in keep) + "r"
    spec = ",".join(spec_parts) + "->" + out_spec
    out = contract(spec, *operands)
    if tracker is not None:
        tracker.add_flops(category, 2 * tensor.size * rank)
        tracker.add_vertical_words(tensor.size + out.size)
    return out
