"""Standard per-sweep binary dimension tree (Section II-C, Fig. 1a).

Within one ALS sweep the tree reuses partially contracted intermediates across
consecutive mode updates.  Because the factors contracted into an intermediate
``M^(S)`` are only those outside ``S``, and modes are updated in increasing
order, an intermediate stays valid exactly while the sweep is updating the
modes inside ``S`` — the versioned cache makes that invariant explicit.  The
leading-order per-sweep cost is two first-level TTMs, i.e. ``4 s^N R``.

The control flow (cache lookup, binary-split descent order) lives in
:mod:`repro.trees.amortized`; this module supplies the dense descent backend,
whose two kernels are BLAS calls on views of the tensor and of the rank-first
intermediates (:mod:`repro.tensor.intermediate`) — the contraction engine the
provider carries is not involved.
The sparse twin over CSF fiber blocks is
:class:`repro.trees.sparse_dt.SparseDimensionTreeMTTKRP`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.trees.amortized import AmortizedTreeMTTKRP, DtOrderPolicy
from repro.trees.descent import descend

__all__ = ["DenseTreeBackend", "DimensionTreeMTTKRP"]


class DenseTreeBackend(AmortizedTreeMTTKRP):
    """Dense descent backend: first-level TTM as a batched GEMM, every further
    step as a batched matrix-vector product (:func:`repro.trees.descent.descend`)."""

    def _descend_from(
        self,
        start_modes: Sequence[int],
        start_intermediate: np.ndarray | None,
        base_versions: Mapping[int, int],
        order_list: Sequence[int],
    ) -> np.ndarray:
        return descend(
            self.tensor,
            self.factors,
            self.versions,
            self.cache,
            start_modes,
            start_intermediate,
            base_versions,
            order_list,
            tracker=self.tracker,
        )


class DimensionTreeMTTKRP(DtOrderPolicy, DenseTreeBackend):
    """Per-sweep amortized MTTKRP via the standard binary dimension tree."""

    name = "dt"
