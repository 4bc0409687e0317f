"""Contraction orders of the dimension-tree descents.

A descent starts at a cached intermediate ``M^(S)`` (or the raw input tensor)
and contracts the modes of ``S \\ T`` one at a time with the current factor
matrices until the kept modes ``T`` remain
(:class:`~repro.trees.amortized.AmortizedTreeMTTKRP` runs it, caching every
intermediate so later requests resume from the deepest still-valid ancestor).
The order in which modes are contracted is the only degree of freedom, and it
is what distinguishes the standard dimension tree from MSDT and from the PP
operator tree; the order policies live here as small pure functions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["binary_split_order", "ascending_order"]


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
