"""Shared control flow of the amortizing dimension-tree MTTKRP engines.

The standard dimension tree (DT) and the multi-sweep dimension tree (MSDT)
differ *only* in the contraction order they choose when no cached intermediate
is reusable; the dense and sparse backends differ *only* in how a descent step
is executed (dense BLAS contractions vs semi-sparse fiber reductions).
:class:`AmortizedTreeMTTKRP` factors the common skeleton — cache lookup,
descent-order selection, degenerate order-1 handling — so the four concrete
engines (``dt``/``msdt`` x dense/sparse) are each a policy plus a backend:

* :class:`DtOrderPolicy` — per-sweep binary tree (Fig. 1a): descend from the
  root with :func:`~repro.trees.descent.binary_split_order`;
* :class:`MsdtOrderPolicy` — cross-sweep tree (Fig. 2): contract the most
  recently updated factor first so the new root intermediate stays valid for
  the next ``N - 1`` mode updates.

The same lookup serves the pairwise-perturbation operators:
:meth:`AmortizedTreeMTTKRP.partial_mttkrp` keeps any set of modes and
contracts the rest in :func:`~repro.trees.descent.ascending_order` (the PP tree
of Fig. 1b), so a PP checkpoint resumes from what the sweep before it left
(footnote 1 of the paper).  This class is the one place that looks up the
cache and picks a contraction order.

Backends implement :meth:`AmortizedTreeMTTKRP._descend`, which returns the raw
intermediate, and :meth:`AmortizedTreeMTTKRP._finalize` where a single-mode
intermediate is not yet the dense MTTKRP (plus the order-1 degenerate
:meth:`AmortizedTreeMTTKRP._order1_mttkrp`); see
:class:`repro.trees.dimension_tree.DenseTreeBackend` for the dense one and
:mod:`repro.trees.sparse_dt` for the CSF-based sparse one.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.trees.base import MTTKRPProvider
from repro.trees.descent import ascending_order, binary_split_order

__all__ = ["AmortizedTreeMTTKRP", "DtOrderPolicy", "MsdtOrderPolicy"]


class AmortizedTreeMTTKRP(MTTKRPProvider):
    """Cache-driven dimension-tree MTTKRP skeleton (policy + backend hooks)."""

    def mttkrp(self, mode: int) -> np.ndarray:
        mode = int(mode)
        if not 0 <= mode < self.order:
            raise ValueError(f"mode {mode} out of range for order-{self.order} tensor")
        if self.order == 1:
            return self._order1_mttkrp()

        def order_from(start_modes):
            if start_modes is None:
                return self._root_order(mode)
            return binary_split_order(start_modes, mode)

        return self._finalize(self._resume({mode}, order_from))

    def partial_mttkrp(self, kept_modes: Iterable[int]):
        """The intermediate ``M^(kept_modes)`` at the current factors (Eq. 4).

        Resumes from the deepest valid cached ancestor, contracts the other
        modes in ascending order and caches every intermediate on the way.
        The result is raw: the rank-first-backed ``(s_i, ..., R)`` array on a
        dense tensor, a
        :class:`~repro.trees.sparse_dt.SemiSparseIntermediate` on a sparse one.
        """
        kept = {int(m) for m in kept_modes}
        if not kept or not kept < set(range(self.order)):
            raise ValueError(
                f"kept modes {sorted(kept)} must be a non-empty proper subset of "
                f"the {self.order} modes"
            )
        return self._resume(kept, lambda start_modes: ascending_order(
            range(self.order) if start_modes is None else start_modes, kept))

    def _resume(self, kept: set[int],
                order_from: Callable[[list[int] | None], list[int]]):
        """Descend to ``kept`` from the deepest valid cached intermediate.

        ``order_from`` maps the sorted modes of that intermediate (``None``
        when the descent starts at the raw tensor) to the contraction order.
        """
        start = self.cache.find_valid(self.versions, kept)
        if start is None:
            return self._descend(list(range(self.order)), None, {}, order_from(None))
        start_modes = sorted(start.modes)
        return self._descend(start_modes, start.array, start.versions_used,
                             order_from(start_modes))

    # -- policy hook ---------------------------------------------------------
    @abc.abstractmethod
    def _root_order(self, mode: int) -> list[int]:
        """Contraction order used when the descent must start at the raw tensor."""

    # -- backend hooks -------------------------------------------------------
    @abc.abstractmethod
    def _descend(
        self,
        start_modes: Sequence[int],
        start_intermediate,
        base_versions: Mapping[int, int],
        order_list: Sequence[int],
    ):
        """Contract ``order_list`` away from the starting intermediate.

        ``start_intermediate`` is ``None`` to start at the raw tensor, else a
        backend-specific intermediate taken from the cache (a dense ndarray
        with trailing rank axis, or a semi-sparse fiber block).  Every
        intermediate produced must be inserted into ``self.cache`` with the
        factor versions baked into it; the last one is returned as it is.
        """

    def _finalize(self, intermediate) -> np.ndarray:
        """A single-mode intermediate as the dense ``(s_mode, R)`` MTTKRP."""
        return intermediate

    def _order1_mttkrp(self) -> np.ndarray:
        """Degenerate order-1 MTTKRP: the tensor against an all-ones rank axis."""
        return np.repeat(np.asarray(self.tensor)[:, None], self.rank, axis=1)


class DtOrderPolicy:
    """Root ordering of the standard per-sweep binary dimension tree."""

    def _root_order(self, mode: int) -> list[int]:
        return binary_split_order(range(self.order), mode)


class MsdtOrderPolicy:
    """Root ordering of the multi-sweep dimension tree.

    A first-level contraction is unavoidable, so contract the **most recently
    updated** factor: it will not change again for the next ``N - 1`` mode
    updates, hence the new root intermediate serves all of them (the MSDT
    subtree root of Fig. 2).
    """

    def _root_order(self, mode: int) -> list[int]:
        root_mode = self.most_recently_updated(exclude=mode)
        remaining = [m for m in range(self.order) if m != root_mode]
        return [root_mode] + binary_split_order(remaining, mode)
