"""Unamortized MTTKRP engines (the correctness oracles / baselines)."""

from __future__ import annotations

import numpy as np

from repro.tensor.mttkrp import mttkrp as mttkrp_einsum
from repro.tensor.mttkrp import mttkrp_unfolding
from repro.trees.base import MTTKRPProvider

__all__ = ["NaiveMTTKRP", "UnfoldingMTTKRP"]


class NaiveMTTKRP(MTTKRPProvider):
    """Recompute every MTTKRP from scratch with a single einsum.

    Per-sweep cost ``2 N s^N R`` — the "no dimension tree" baseline of
    Section II-B.  Used as the correctness oracle for all amortizing engines.
    """

    name = "naive"

    def mttkrp(self, mode: int) -> np.ndarray:
        return mttkrp_einsum(self.tensor, self.factors, mode,
                             tracker=self.tracker, category="ttm")

    def _on_factor_update(self, mode: int) -> None:  # no cache to maintain
        return None


class UnfoldingMTTKRP(MTTKRPProvider):
    """Textbook unfolding + Khatri-Rao MTTKRP (TensorLy-style reference baseline).

    Forms the dense Khatri-Rao matrix explicitly; only sensible for small
    tensors, included as the generic-toolbox baseline the paper's introduction
    contrasts against.
    """

    name = "unfolding"

    def mttkrp(self, mode: int) -> np.ndarray:
        return mttkrp_unfolding(self.tensor, self.factors, mode,
                                tracker=self.tracker, category="ttm")

    def _on_factor_update(self, mode: int) -> None:
        return None
