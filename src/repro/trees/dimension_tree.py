"""Standard per-sweep binary dimension tree (Section II-C, Fig. 1a).

Within one ALS sweep the tree reuses partially contracted intermediates across
consecutive mode updates.  Because the factors contracted into an intermediate
``M^(S)`` are only those outside ``S``, and modes are updated in increasing
order, an intermediate stays valid exactly while the sweep is updating the
modes inside ``S`` — the versioned cache makes that invariant explicit.  The
leading-order per-sweep cost is two first-level TTMs, i.e. ``4 s^N R``.

Each half of the tree starts with one partial MTTKRP, as in the dimension
tree the paper compares MSDT against (PLANC's; Ballard, Hayashi and Kannan,
HiPC 2018).  For the trailing half — the descent from the raw tensor towards
a mode of the leading half, which contracts modes ``ceil(N/2)..N-1`` first —
that is :func:`~repro.tensor.ttm.trailing_contraction`: one GEMM of the
unfolding with the Khatri-Rao product of those factors, cached under the kept
modes, so the
order-``(N - 1)`` intermediate of a TTM followed by mTTVs (``M^(0,1,2)`` at
``N = 4``) is never formed.  That needs two or more trailing modes, so it
applies from ``N = 4`` on.  The leading half stays a first-level TTM and mTTVs
(``docs/engines.rst``, "Dense hot loops", has the measurements of both).
MSDT, whose root intermediates are reused across sweeps, and the
pairwise-perturbation operator tree keep the one-mode-at-a-time descent.

The control flow (cache lookup, descent orders) lives in
:mod:`repro.trees.amortized`; this module supplies the dense descent backend,
whose two kernels are BLAS calls on views of the tensor and of the rank-first
intermediates (:mod:`repro.tensor.intermediate`), not einsums.
The sparse twin over CSF fiber blocks is
:class:`repro.trees.sparse_dt.SparseDimensionTreeMTTKRP`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.tensor.ttm import first_contraction, trailing_contraction
from repro.tensor.ttv import contract_intermediate_mode
from repro.trees.amortized import AmortizedTreeMTTKRP, DtOrderPolicy

__all__ = ["DenseTreeBackend", "DimensionTreeMTTKRP"]


class DenseTreeBackend(AmortizedTreeMTTKRP):
    """Dense descent backend: first-level TTM as a batched GEMM
    (:func:`~repro.tensor.ttm.first_contraction`), every further step as a
    batched matrix-vector product
    (:func:`~repro.tensor.ttv.contract_intermediate_mode`).  Neither is an
    einsum, and every intermediate cached is in the rank-first layout of
    :mod:`repro.tensor.intermediate`."""

    def _descend(
        self,
        start_modes: Sequence[int],
        start_intermediate: np.ndarray | None,
        base_versions: Mapping[int, int],
        order_list: Sequence[int],
    ) -> np.ndarray:
        remaining = sorted(int(m) for m in start_modes)
        array = start_intermediate
        versions_used = dict(base_versions)
        for mode in order_list:
            mode = int(mode)
            axis = remaining.index(mode)
            if array is None:
                array = first_contraction(self.tensor, self.factors[mode], axis,
                                          tracker=self.tracker)
            else:
                array = contract_intermediate_mode(array, self.factors[mode], axis,
                                                   tracker=self.tracker)
            versions_used[mode] = self.versions[mode]
            remaining.pop(axis)
            self.cache.put(remaining, array, versions_used)
        return array


class DimensionTreeMTTKRP(DtOrderPolicy, DenseTreeBackend):
    """Per-sweep amortized MTTKRP via the standard binary dimension tree,
    its trailing half started by one Khatri-Rao GEMM."""

    name = "dt"

    def _descend(
        self,
        start_modes: Sequence[int],
        start_intermediate: np.ndarray | None,
        base_versions: Mapping[int, int],
        order_list: Sequence[int],
    ) -> np.ndarray:
        trailing = range((self.order + 1) // 2, self.order)
        n_trailing = len(trailing)
        if (start_intermediate is None and n_trailing >= 2
                and list(order_list[:n_trailing]) == list(reversed(trailing))):
            start_modes = range(trailing.start)
            start_intermediate = trailing_contraction(
                self.tensor, [self.factors[m] for m in trailing], tracker=self.tracker)
            base_versions = {m: self.versions[m] for m in trailing}
            self.cache.put(start_modes, start_intermediate, base_versions)
            order_list = order_list[n_trailing:]
        return super()._descend(start_modes, start_intermediate, base_versions,
                                order_list)
