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

Layout of the dense pair operators — decided here, by measurement.  Each
``M_p^(i,j)`` is held **once**, as the rank-first intermediate its descent
leaves (the array the provider's cache holds too, so a checkpoint allocates
nothing of its own but one ``(N - 1, R, s_n)`` scratch per mode, at that
mode's first approximated update), and Eq. (5)'s first-order sum
(:meth:`PairwiseOperators.first_order_mttkrp`) runs one bare batched product
per pair on its ``(R, s_i, s_j)`` slices: matrix times column for ``n = i``,
row times matrix for ``n = j``, so neither orientation is ever copied.  The
form this was measured against lays the ``N - 1`` oriented operators of every
mode side by side in one rank-first block, each pair in both orientations, and
does one batched product per mode.  That saves ~10 us per mode of call
overhead in a hot loop (32^4, ``R = 16``), but holds every pair twice, pays a
transposed copy per pair per checkpoint, and changes the allocation pattern of
a checkpoint enough that glibc hands its 4 MB intermediates out page-faulted
again: on the harness's ``dense4_collinear`` it measured ``pp_approx_sweep_s``
0.35 against 0.30 ms, ``trees.pp_build_s`` 6.9 against 5.6 ms and
``pp_solve_s`` 0.28 against 0.19 s, and at 200^3, ``R = 32`` 7.5 against 4.4
ms per approximated sweep, 65 against 54 ms per checkpoint and 61.7 against
20.7 MB of ``tracemalloc`` peak (``docs/engines.rst``, "The approximated
sweep").  One orientation per pair is what ships; there is no second form.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from repro.backend import is_sparse_tensor
from repro.tensor.intermediate import rank_first
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
    dense ``(s_n, R)`` matrices.  Shapes are validated here, once;
    :meth:`first_order_mttkrp` is the one place that turns the operators into
    the approximated MTTKRP of Eq. (5).
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
        self._semi_sparse = any(isinstance(op, SemiSparsePairOperator)
                                for op in self._pairs.values())
        # per-mode scratch and operand views of the dense first-order terms
        self._plans: dict[int, tuple] = {}
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
        """Total auxiliary memory (in 8-byte words) this instance holds.

        Semi-sparse pair operators count their fiber ids and rank blocks —
        the memory they actually hold — not the dense shape they stand for.
        The ``(N - 1, R, s_n)`` scratch of :meth:`first_order_mttkrp` counts
        from the first approximated update of mode ``n`` on, when it is made.
        """
        total = sum(
            op.memory_words() if isinstance(op, SemiSparsePairOperator) else op.size
            for op in self._pairs.values()
        )
        total += sum(arr.size for arr in self._singles.values())
        total += sum(scratch.size for scratch, _, _ in self._plans.values())
        return int(total)

    # -- the approximated MTTKRP --------------------------------------------------
    def first_order_mttkrp(
        self,
        mode: int,
        delta_factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
        tracker=None,
    ) -> np.ndarray:
        """``M_p^(mode) + sum_{i != mode} U^(mode,i)`` — Eq. (5) up to first order.

        ``delta_factors[i]`` is the step ``dA^(i)`` away from the checkpoint
        (entry ``mode`` is not read).  The result is written into ``out``
        (shape ``(s_mode, R)``, allocated when ``None``) and returned.

        On dense operators each correction of Eq. (6) is one bare batched
        product on the rank-first slices of the pair operator — matrix times
        column when ``mode`` is the pair's first mode, row times matrix when
        it is the second, so no operator is ever transposed — into one
        scratch, summed once.  Semi-sparse operators accumulate one
        :meth:`~repro.trees.sparse_pp.OrientedPairOperator.contract_delta` per
        pair.  Either
        way the tracker is charged what the ``N - 1`` single-pair
        :func:`~repro.core.pp_corrections.first_order_correction` calls charge.
        """
        if len(delta_factors) != self.order:
            raise ValueError(
                f"expected {self.order} delta factors, got {len(delta_factors)}"
            )
        single = self._singles[mode]
        if out is None:
            out = np.empty_like(single)
        elif out.shape != single.shape:
            raise ValueError(f"out must have shape {single.shape}, got {out.shape}")
        if self._semi_sparse:
            np.copyto(out, single)
            for other in range(self.order):
                if other != mode:
                    self.pair_operator(mode, other).contract_delta(
                        np.asarray(delta_factors[other]), tracker=tracker,
                        out=out, accumulate=True,
                    )
            return out
        if tracker is not None:
            start = time.perf_counter()
        scratch, steps, operator_words = (self._plans.get(mode)
                                          or self._first_order_plan(mode))
        for other, forward, slices, target in steps:
            delta = np.asarray(delta_factors[other])
            if delta.shape != self.checkpoint_factors[other].shape:
                raise ValueError(
                    f"delta factor {other} has shape {delta.shape}, expected "
                    f"{self.checkpoint_factors[other].shape}"
                )
            if forward:
                np.matmul(slices, delta.T[:, :, None], out=target)
            else:
                np.matmul(delta.T[:, None, :], slices, out=target)
        np.add(single, scratch.sum(axis=0).T, out=out)
        if tracker is not None:
            tracker.add_flops("mttv", 2 * operator_words)
            tracker.add_vertical_words(operator_words + len(steps) * single.size)
            tracker.add_seconds("mttv", time.perf_counter() - start)
        return out

    def _first_order_plan(self, mode: int):
        """Scratch and operand views of :meth:`first_order_mttkrp` on dense operators.

        One ``(R, s_mode)`` row of the scratch per pair; for each pair the
        rank-first ``(R, s_i, s_j)`` slices of the one stored orientation and
        whether ``mode`` is its first mode (matrix times column) or its second
        (row times matrix); the words the operators hold.  Views only, taken
        once per mode and checkpoint.
        """
        rows, rank = self._singles[mode].shape
        others = [other for other in range(self.order) if other != mode]
        scratch = np.empty((len(others), rank, rows), dtype=self._singles[mode].dtype)
        steps = []
        for slot, other in enumerate(others):
            forward = mode < other
            key = (mode, other) if forward else (other, mode)
            target = scratch[slot][:, :, None] if forward else scratch[slot][:, None, :]
            steps.append((other, forward, rank_first(np.asarray(self._pairs[key])), target))
        plan = self._plans[mode] = (scratch, steps, sum(step[2].size for step in steps))
        return plan

    # -- construction ----------------------------------------------------------------
    @classmethod
    def build(
        cls,
        tensor: np.ndarray,
        factors: Sequence[np.ndarray],
        tracker=None,
        provider: MTTKRPProvider | None = None,
        max_cache_bytes: int | None = None,
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
        like the dense path shares the dense provider's cache.
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
                max_cache_bytes=max_cache_bytes,
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
