"""Name-based construction of MTTKRP engines (dense and sparse backends)."""

from __future__ import annotations

from typing import Sequence, Type

import numpy as np

from repro.backend import is_sparse_tensor
from repro.trees.base import MTTKRPProvider
from repro.trees.dimension_tree import DimensionTreeMTTKRP
from repro.trees.msdt import MultiSweepDimensionTree
from repro.trees.naive import NaiveMTTKRP
from repro.trees.sparse import SparseCooMTTKRP
from repro.trees.sparse_dt import (
    SparseDimensionTreeMTTKRP,
    SparseMultiSweepDimensionTree,
)

__all__ = ["make_provider", "available_providers", "PROVIDERS", "SPARSE_PROVIDERS"]

PROVIDERS: dict[str, Type[MTTKRPProvider]] = {
    "naive": NaiveMTTKRP,
    "dt": DimensionTreeMTTKRP,
    "msdt": MultiSweepDimensionTree,
}

#: engines used when the tensor is a sparse backend object, under the same
#: names: ``dt``/``msdt`` dispatch to the CSF-based semi-sparse dimension
#: trees (:mod:`repro.trees.sparse_dt`), ``naive`` to the ``O(nnz R N)``
#: recompute kernel — so ``cp_als``'s engines amortize on sparse inputs
#: exactly as on dense ones.
SPARSE_PROVIDERS: dict[str, Type[MTTKRPProvider]] = {
    "naive": SparseCooMTTKRP,
    "dt": SparseDimensionTreeMTTKRP,
    "msdt": SparseMultiSweepDimensionTree,
}


def available_providers() -> list[str]:
    """Engine names accepted by :func:`make_provider`, on either backend."""
    return list(PROVIDERS)


def make_provider(
    name: str,
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    tracker=None,
) -> MTTKRPProvider:
    """Construct the MTTKRP engine ``name`` for ``tensor`` and ``factors``.

    ``tensor`` may be a dense ndarray or a :class:`repro.sparse.CooTensor`;
    the names ``"naive"``, ``"dt"`` and ``"msdt"`` dispatch
    to the matching backend implementation (on sparse inputs the tree names
    build the CSF-based semi-sparse dimension trees of
    :mod:`repro.trees.sparse_dt`, and ``"naive"`` the ``O(nnz R N)``
    recompute kernel).  An unknown name raises :class:`ValueError` listing
    :func:`available_providers`.
    """
    registry = SPARSE_PROVIDERS if is_sparse_tensor(tensor) else PROVIDERS
    if name not in registry:
        raise ValueError(
            f"unknown MTTKRP engine {name!r}; available: {available_providers()}"
        )
    return registry[name](tensor, factors, tracker=tracker)
