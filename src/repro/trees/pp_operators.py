"""Pairwise-perturbation operators (PP dimension tree, Fig. 1b).

The PP initialization step (Algorithm 2, line 9) computes, at a checkpoint
``A_p`` of the factor matrices,

* the pairwise operators ``M_p^(i,j)`` for every ``i < j`` — partially
  contracted MTTKRPs keeping two modes (Eq. 4), and
* the first-order MTTKRPs ``M_p^(n)`` for every mode,

and the PP approximated step reuses them for many cheap sweeps.  The builder
below walks the same versioned contraction cache as the dimension-tree
engines, contracting non-target modes in ascending order, which reproduces the
sharing pattern of the paper's PP tree (``binom(l+1, 2)`` intermediates per
level; three first-level TTMs for ``N = 4``, one of which can be amortized
from the preceding regular sweep when the caller passes its engine's cache).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.backend import is_sparse_tensor
from repro.trees.base import MTTKRPProvider
from repro.trees.cache import ContractionCache
from repro.trees.descent import ascending_order, descend
from repro.trees.sparse_dt import SparseTreeBackend
from repro.trees.sparse_pp import (
    OrientedPairOperator,
    SemiSparsePairOperator,
    build_semi_sparse_operators,
)
from repro.utils.validation import check_factor_matrices

__all__ = ["PairwiseOperators"]


class PairwiseOperators:
    """Container for the PP operators built at a factor checkpoint ``A_p``.

    Pair operators are dense ``(s_i, s_j, R)`` arrays on the dense backend and
    :class:`~repro.trees.sparse_pp.SemiSparsePairOperator` fiber blocks on the
    sparse one (``np.asarray`` densifies either); single operators are always
    dense ``(s_n, R)`` matrices.
    """

    def __init__(
        self,
        checkpoint_factors: Sequence[np.ndarray],
        pair_ops: Mapping[tuple[int, int], np.ndarray | SemiSparsePairOperator],
        single_ops: Mapping[int, np.ndarray],
    ):
        # preserve the caller's working dtype (float32 runs stay float32)
        self.checkpoint_factors = [np.asarray(f) for f in checkpoint_factors]
        self.order = len(self.checkpoint_factors)
        self._pairs = dict(pair_ops)
        self._singles = dict(single_ops)
        for (i, j), op in self._pairs.items():
            if not 0 <= i < j < self.order:
                raise ValueError(f"invalid pair key {(i, j)}")
            expected = (
                self.checkpoint_factors[i].shape[0],
                self.checkpoint_factors[j].shape[0],
                self.rank,
            )
            if op.shape != expected:
                raise ValueError(
                    f"pair operator {(i, j)} has shape {op.shape}, expected {expected}"
                )
        for n, arr in self._singles.items():
            expected = (self.checkpoint_factors[n].shape[0], self.rank)
            if arr.shape != expected:
                raise ValueError(
                    f"single operator {n} has shape {arr.shape}, expected {expected}"
                )

    # -- properties ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.checkpoint_factors[0].shape[1]

    def single(self, mode: int) -> np.ndarray:
        """``M_p^(mode)`` — the MTTKRP at the checkpoint factors."""
        return self._singles[mode]

    def pair_operator(self, mode: int, other: int) -> np.ndarray | OrientedPairOperator:
        """``M_p^(mode, other)`` oriented with ``mode`` first: shape ``(s_mode, s_other, R)``.

        Dense operators come back as arrays (a transposed view when
        ``mode > other``); semi-sparse ones as a zero-copy
        :class:`~repro.trees.sparse_pp.OrientedPairOperator`.
        """
        if mode == other:
            raise ValueError("pair operator requires two distinct modes")
        key = (mode, other) if mode < other else (other, mode)
        op = self._pairs[key]
        if isinstance(op, SemiSparsePairOperator):
            return op.oriented(0 if mode < other else 1)
        if mode < other:
            return op
        return np.transpose(op, (1, 0, 2))

    def pairs(self) -> dict[tuple[int, int], np.ndarray | SemiSparsePairOperator]:
        return dict(self._pairs)

    def memory_words(self) -> int:
        """Total auxiliary memory (in 8-byte words) held by the operators.

        Semi-sparse pair operators count their fiber ids and rank blocks —
        the memory they actually hold — not the dense shape they stand for.
        """
        total = sum(
            op.memory_words() if isinstance(op, SemiSparsePairOperator) else op.size
            for op in self._pairs.values()
        )
        total += sum(arr.size for arr in self._singles.values())
        return int(total)

    # -- construction ----------------------------------------------------------------
    @classmethod
    def build(
        cls,
        tensor: np.ndarray,
        factors: Sequence[np.ndarray],
        tracker=None,
        provider: MTTKRPProvider | None = None,
        max_cache_bytes: int | None = None,
        engine=None,
    ) -> "PairwiseOperators":
        """Build all PP operators at the current ``factors`` (the checkpoint ``A_p``).

        When ``provider`` is given, its contraction cache and factor versions
        are reused, so first-level intermediates left over from the preceding
        regular (DT/MSDT) sweep are amortized exactly as footnote 1 of the
        paper describes.  The provider's factors must already equal
        ``factors`` (the checkpoint is taken at the current iterate).

        ``tensor`` may be a dense ndarray or a sparse
        :class:`repro.sparse.CooTensor`; sparse inputs build every operator
        as semi-sparse descents over the CSF fiber cache
        (:func:`repro.trees.sparse_pp.build_semi_sparse_operators`) — when the
        ``provider`` is one of the sparse dimension trees, its versioned
        intermediate cache and pattern-only CSF structures are shared exactly
        like the dense path shares the dense provider's cache.  ``engine`` is
        the contraction engine of those sparse descents; the dense descents
        are BLAS calls on views and use none.
        """
        sparse = is_sparse_tensor(tensor)
        if not sparse:
            tensor = np.asarray(tensor)
            if not np.issubdtype(tensor.dtype, np.floating):
                tensor = tensor.astype(np.float64)
        order = tensor.ndim
        factors = check_factor_matrices(factors, shape=tensor.shape,
                                        dtype=tensor.dtype)
        if order < 3:
            raise ValueError("pairwise perturbation requires tensors of order >= 3")

        if sparse:
            if provider is not None:
                # sharing is only sound when the provider was built from this
                # very data: identity is the fast path (the drivers hand the
                # provider's own tensor back), else compare the COO payload
                same = provider.tensor is tensor or (
                    provider.tensor.shape == tensor.shape
                    and np.array_equal(provider.tensor.indices, tensor.indices)
                    and np.array_equal(provider.tensor.values, tensor.values)
                )
                if not same:
                    raise ValueError("provider is bound to a different tensor")
                if engine is None:
                    engine = provider.engine
            tree = provider if isinstance(provider, SparseTreeBackend) else None
            if tree is not None:
                for a, b in zip(tree.factors, factors):
                    if a.shape != b.shape or not np.array_equal(a, b):
                        raise ValueError(
                            "provider factors must equal the checkpoint factors "
                            "when sharing its cache"
                        )
            pair_ops, single_ops = build_semi_sparse_operators(
                tensor, factors, tracker=tracker, provider=tree,
                max_cache_bytes=max_cache_bytes, engine=engine,
            )
            return cls([f.copy() for f in factors], pair_ops, single_ops)

        if provider is not None:
            # sharing the provider's intermediate cache is only sound when it
            # was built from this very data — a same-shaped different tensor
            # would silently mix cached contractions of the wrong data.  The
            # provider may hold a normalized copy (dtype/contiguity), so fall
            # back to a value comparison; PP-init already does O(size * R)
            # work, so the O(size) check is negligible.  (No shares-memory
            # shortcut: overlapping views of the same buffer can still hold
            # different data.)
            same = provider.tensor is tensor or (
                provider.tensor.shape == tensor.shape
                and np.array_equal(provider.tensor, tensor)
            )
            if not same:
                raise ValueError("provider is bound to a different tensor")
            for a, b in zip(provider.factors, factors):
                if a.shape != b.shape or not np.array_equal(a, b):
                    raise ValueError(
                        "provider factors must equal the checkpoint factors when "
                        "sharing its cache"
                    )
            cache = provider.cache
            versions: Sequence[int] = provider.versions
            work_factors = provider.factors
        else:
            cache = ContractionCache(max_bytes=max_cache_bytes)
            versions = [0] * order
            work_factors = factors

        def _compute(targets: set[int]) -> np.ndarray:
            start = cache.find_valid(versions, targets)
            if start is None:
                start_modes: list[int] = list(range(order))
                start_array = None
                base_versions: dict[int, int] = {}
            else:
                start_modes = sorted(start.modes)
                start_array = start.array
                base_versions = start.versions_used
            order_list = ascending_order(start_modes, targets)
            return descend(
                tensor,
                work_factors,
                versions,
                cache,
                start_modes,
                start_array,
                base_versions,
                order_list,
                tracker=tracker,
            )

        pair_ops: dict[tuple[int, int], np.ndarray] = {}
        for i in range(order):
            for j in range(i + 1, order):
                pair_ops[(i, j)] = _compute({i, j})
        single_ops: dict[int, np.ndarray] = {}
        for n in range(order):
            single_ops[n] = _compute({n})

        checkpoint = [f.copy() for f in factors]
        return cls(checkpoint, pair_ops, single_ops)
