"""Contraction-path descent shared by the dimension-tree engines.

Given a starting intermediate ``M^(S)`` (or the raw input tensor) and a target
mode set ``T ⊂ S``, :func:`descend` contracts the modes of ``S \\ T`` one at a
time with the current factor matrices, caching every intermediate produced so
later requests can resume from the deepest still-valid ancestor.  The order in
which modes are contracted is the only degree of freedom, and it is what
distinguishes the standard dimension tree from MSDT and from the PP operator
tree; the order policies live here as small pure functions.

The two steps of a descent are the dense hot loops of the package:
:func:`~repro.tensor.ttm.first_contraction` (one batched GEMM on views of the
tensor) starts at the root and
:func:`~repro.tensor.ttv.contract_intermediate_mode` (one batched
matrix-vector product) does every step below it.  Neither is an einsum, so a
descent takes no contraction engine; every intermediate it caches is in the
rank-first layout of :mod:`repro.tensor.intermediate`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.tensor.ttm import first_contraction
from repro.tensor.ttv import contract_intermediate_mode
from repro.trees.cache import ContractionCache

__all__ = [
    "binary_split_order",
    "ascending_order",
    "descend",
]


def binary_split_order(modes: Sequence[int], target: int) -> list[int]:
    """Contraction order of the standard binary dimension tree (Fig. 1a).

    ``modes`` is the sorted remaining-mode set and ``target`` the leaf we are
    descending towards.  At every level the remaining set is split into two
    contiguous halves; the half not containing ``target`` is contracted away,
    farthest modes first, which reproduces the classic left/right subtree
    intermediates (``M^(1,2,3)``, ``M^(1,2)``, ... for the left leaves and
    ``M^(2,3,4)``, ``M^(3,4)``, ... for the right leaves when ``N = 4``).
    """
    modes = sorted(int(m) for m in modes)
    if target not in modes:
        raise ValueError(f"target mode {target} not among remaining modes {modes}")
    order: list[int] = []
    current = modes
    while len(current) > 1:
        half = (len(current) + 1) // 2
        left, right = current[:half], current[half:]
        if target in left:
            order.extend(reversed(right))
            current = left
        else:
            order.extend(left)
            current = right
    return order


def ascending_order(modes: Sequence[int], targets: Iterable[int]) -> list[int]:
    """Contract every non-target mode in increasing index order.

    Used by the pairwise-perturbation operator tree, where the target is a
    pair of modes and ascending order maximizes sharing of the first-level
    intermediates across the pair requests (Fig. 1b).
    """
    target_set = {int(t) for t in targets}
    modes = sorted(int(m) for m in modes)
    missing = target_set.difference(modes)
    if missing:
        raise ValueError(f"target modes {sorted(missing)} not among remaining modes {modes}")
    return [m for m in modes if m not in target_set]


def descend(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    versions: Sequence[int],
    cache: ContractionCache,
    start_modes: Sequence[int],
    start_array: np.ndarray | None,
    start_versions_used: Mapping[int, int],
    contraction_order: Sequence[int],
    tracker=None,
    ttm_category: str = "ttm",
    mttv_category: str = "mttv",
) -> np.ndarray:
    """Contract ``contraction_order`` away from a starting intermediate.

    Parameters
    ----------
    tensor:
        The full input tensor (used when ``start_array`` is ``None``, i.e. the
        descent starts at the tree root).
    factors, versions:
        Current factor matrices and their version counters.
    cache:
        Intermediates produced along the way are inserted here.
    start_modes:
        Sorted remaining-mode set of the starting intermediate.
    start_array:
        The starting intermediate (with trailing rank axis), or ``None`` for
        the raw tensor (no rank axis yet).
    start_versions_used:
        Factor versions already baked into the starting intermediate.
    contraction_order:
        Modes to contract, in order; each must be present in the current
        remaining set when its turn comes.

    Returns
    -------
    The intermediate remaining after all requested contractions (trailing rank
    axis), which is also cached.
    """
    remaining = sorted(int(m) for m in start_modes)
    array = tensor if start_array is None else start_array
    versions_used = dict(start_versions_used)
    is_raw_tensor = start_array is None

    for mode in contraction_order:
        mode = int(mode)
        if mode not in remaining:
            raise ValueError(f"mode {mode} not in remaining set {remaining}")
        axis = remaining.index(mode)
        factor = factors[mode]
        if is_raw_tensor:
            array = first_contraction(array, factor, axis, tracker=tracker,
                                      category=ttm_category)
            is_raw_tensor = False
        else:
            array = contract_intermediate_mode(array, factor, axis, tracker=tracker,
                                               category=mttv_category)
        versions_used[mode] = versions[mode]
        remaining.pop(axis)
        if remaining:
            cache.put(remaining, array, versions_used)
    if is_raw_tensor:
        # No contraction requested starting from the raw tensor: broadcast a
        # rank axis so the return type is uniform (only used in degenerate
        # order-1 situations).
        rank = factors[0].shape[1]
        array = np.broadcast_to(tensor[..., None], tensor.shape + (rank,)).copy()
    return array
