"""Name-based construction of MTTKRP engines (dense and sparse backends)."""

from __future__ import annotations

from typing import Sequence, Type

import numpy as np

from repro.backend import is_sparse_tensor
from repro.trees.base import MTTKRPProvider
from repro.trees.dimension_tree import DimensionTreeMTTKRP
from repro.trees.msdt import MultiSweepDimensionTree
from repro.trees.naive import NaiveMTTKRP, UnfoldingMTTKRP
from repro.trees.sparse import SparseCooMTTKRP, SparseUnfoldingMTTKRP
from repro.trees.sparse_dt import (
    SparseDimensionTreeMTTKRP,
    SparseMultiSweepDimensionTree,
)

__all__ = ["make_provider", "available_providers", "PROVIDERS", "SPARSE_PROVIDERS"]

PROVIDERS: dict[str, Type[MTTKRPProvider]] = {
    "naive": NaiveMTTKRP,
    "unfolding": UnfoldingMTTKRP,
    "dt": DimensionTreeMTTKRP,
    "dimension_tree": DimensionTreeMTTKRP,
    "msdt": MultiSweepDimensionTree,
    "multi_sweep": MultiSweepDimensionTree,
}

#: engines used when the tensor is a sparse backend object.  Every dense name
#: has a real sparse counterpart: ``dt``/``msdt`` dispatch to the CSF-based
#: semi-sparse dimension trees (:mod:`repro.trees.sparse_dt`), ``naive`` to the
#: ``O(nnz R N)`` recompute kernel, ``unfolding`` to the cached-CSR
#: matricization engine — so ``cp_als(..., mttkrp="msdt")``, the drivers'
#: default, amortizes on sparse inputs exactly as it does on dense ones.
SPARSE_PROVIDERS: dict[str, Type[MTTKRPProvider]] = {
    "sparse": SparseCooMTTKRP,
    "coo": SparseCooMTTKRP,
    "naive": SparseCooMTTKRP,
    "dt": SparseDimensionTreeMTTKRP,
    "dimension_tree": SparseDimensionTreeMTTKRP,
    "sparse-dt": SparseDimensionTreeMTTKRP,
    "msdt": SparseMultiSweepDimensionTree,
    "multi_sweep": SparseMultiSweepDimensionTree,
    "sparse-msdt": SparseMultiSweepDimensionTree,
    "unfolding": SparseUnfoldingMTTKRP,
    "sparse-unfolding": SparseUnfoldingMTTKRP,
}


def available_providers(sparse: bool = False) -> list[str]:
    """Canonical engine names accepted by :func:`make_provider`."""
    if sparse:
        return ["sparse", "unfolding", "naive", "dt", "msdt"]
    return ["naive", "unfolding", "dt", "msdt"]


def make_provider(
    name: str,
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    tracker=None,
    max_cache_bytes: int | None = None,
    engine=None,
) -> MTTKRPProvider:
    """Construct the MTTKRP engine ``name`` for ``tensor`` and ``factors``.

    ``tensor`` may be a dense ndarray or a :class:`repro.sparse.CooTensor`;
    the same names dispatch to the matching backend implementation.  Dense
    names: ``"naive"``, ``"unfolding"``, ``"dt"`` (alias ``"dimension_tree"``)
    and ``"msdt"`` (alias ``"multi_sweep"``).  On sparse inputs the tree names
    build the CSF-based semi-sparse dimension trees of
    :mod:`repro.trees.sparse_dt`; ``"sparse"`` / ``"coo"`` select the
    ``O(nnz R N)`` recompute kernel explicitly.  ``engine`` is the shared
    :class:`~repro.contract.ContractionEngine` used for every einsum the
    provider issues (defaults to the process-wide one; the dense ``dt`` /
    ``msdt`` trees contract through BLAS and issue none).  An unknown name
    raises :class:`ValueError` listing :func:`available_providers`.
    """
    key = name.lower().strip()
    registry = SPARSE_PROVIDERS if is_sparse_tensor(tensor) else PROVIDERS
    if key not in registry:
        raise ValueError(
            f"unknown MTTKRP engine {name!r}; available: "
            f"{available_providers(sparse=registry is SPARSE_PROVIDERS)}"
        )
    return registry[key](tensor, factors, tracker=tracker,
                         max_cache_bytes=max_cache_bytes, engine=engine)
