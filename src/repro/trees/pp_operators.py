"""Pairwise-perturbation operators (PP dimension tree, Fig. 1b).

The PP initialization step (Algorithm 2, line 9) computes, at a checkpoint
``A_p`` of the factor matrices,

* the pairwise operators ``M_p^(i,j)`` for every ``i < j`` — partially
  contracted MTTKRPs keeping two modes (Eq. 4), and
* the first-order MTTKRPs ``M_p^(n)`` for every mode,

and the PP approximated step reuses them for many cheap sweeps.  There is
one builder, :meth:`PairwiseOperators.build`, for dense and sparse tensors
alike: one loop over the kept mode sets, each operator the
:meth:`~repro.trees.amortized.AmortizedTreeMTTKRP.partial_mttkrp` of a tree
provider.  That walks the same versioned contraction cache as the sweeps,
contracting non-target modes in ascending order, which reproduces the sharing
pattern of the paper's PP tree (``binom(l+1, 2)`` intermediates per level;
three first-level TTMs at every order, one of which is amortized from the
preceding regular sweep when the caller passes its tree provider).

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
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from repro.backend import is_sparse_tensor
from repro.tensor.intermediate import rank_first
from repro.trees.amortized import AmortizedTreeMTTKRP
from repro.trees.base import MTTKRPProvider
from repro.trees.registry import make_provider
from repro.trees.sparse_pp import SemiSparsePairOperator
from repro.utils.validation import check_factor_matrices

__all__ = ["PairwiseOperators"]


class PairwiseOperators:
    """Container for the PP operators built at a factor checkpoint ``A_p``.

    Pair operators are dense ``(s_i, s_j, R)`` arrays on the dense backend and
    :class:`~repro.trees.sparse_pp.SemiSparsePairOperator` fiber blocks on the
    sparse one (``np.asarray`` densifies either); single operators are always
    dense ``(s_n, R)`` matrices, one per mode, and fix the shapes every pair
    is validated against, once.  :meth:`first_order_mttkrp` is the one place
    that turns the operators into the approximated MTTKRP of Eq. (5).
    """

    def __init__(
        self,
        pair_ops: Mapping[tuple[int, int], np.ndarray | SemiSparsePairOperator],
        single_ops: Mapping[int, np.ndarray],
    ):
        self._pairs = dict(pair_ops)
        self._singles = dict(single_ops)
        self.order = len(self._singles)
        self._semi_sparse = any(isinstance(op, SemiSparsePairOperator)
                                for op in self._pairs.values())
        # per-mode scratch and operand views of the dense first-order terms
        self._plans: dict[int, tuple] = {}
        if self.order < 3 or sorted(self._singles) != list(range(self.order)):
            raise ValueError(
                "expected one single operator per mode of an order >= 3 tensor, "
                f"got modes {sorted(self._singles)}"
            )
        rows = []
        for n in range(self.order):
            shape = self._singles[n].shape
            if len(shape) != 2 or shape[1] != self.rank:
                raise ValueError(
                    f"single operator {n} has shape {shape}, expected (s_{n}, {self.rank})"
                )
            rows.append(shape[0])
        for (i, j), op in self._pairs.items():
            if not 0 <= i < j < self.order:
                raise ValueError(f"invalid pair key {(i, j)}")
            expected = (rows[i], rows[j], self.rank)
            if op.shape != expected:
                raise ValueError(
                    f"pair operator {(i, j)} has shape {op.shape}, expected {expected}"
                )

    # -- properties ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._singles[0].shape[-1]

    def single(self, mode: int) -> np.ndarray:
        """``M_p^(mode)`` — the MTTKRP at the checkpoint factors."""
        return self._singles[mode]

    def pairs(self) -> dict[tuple[int, int], np.ndarray | SemiSparsePairOperator]:
        """``M_p^(i,j)`` keyed ``(i, j)`` with ``i < j``, shape ``(s_i, s_j, R)``."""
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
        scratch, summed once, and the tracker is charged ``2`` flops per
        operator element under ``"mttv"``.  Semi-sparse operators accumulate
        one :meth:`~repro.trees.sparse_pp.SemiSparsePairOperator.contract_other`
        per pair, which charges its own fibers.
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
                    key = (mode, other) if mode < other else (other, mode)
                    self._pairs[key].contract_other(
                        delta_factors[other], 0 if mode < other else 1,
                        tracker=tracker, out=out, accumulate=True,
                    )
            return out
        if tracker is not None:
            start = time.perf_counter()
        scratch, steps, operator_words = (self._plans.get(mode)
                                          or self._first_order_plan(mode))
        for other, forward, slices, target in steps:
            delta = np.asarray(delta_factors[other])
            if delta.shape != self._singles[other].shape:
                raise ValueError(
                    f"delta factor {other} has shape {delta.shape}, expected "
                    f"{self._singles[other].shape}"
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

        ``tensor`` may be a dense ndarray or a sparse
        :class:`repro.sparse.CooTensor`.  Every operator is the
        :meth:`~repro.trees.amortized.AmortizedTreeMTTKRP.partial_mttkrp` of
        one tree provider, charged to ``tracker``:

        * a tree provider (``dt``/``msdt``, either backend) is used as it is,
          so the intermediates its last sweep left — and, on sparse input,
          its CSF layouts, fiber regroupings and pair patterns — are shared
          exactly as footnote 1 of the paper describes; its factors must
          already equal ``factors``;
        * for any other provider, or none, a private ``dt`` provider (cache
          budget ``max_cache_bytes``) is built and dropped afterwards, so no
          PP intermediate outlives the build in a provider that never
          invalidates its cache.

        A provider must hold the same data as ``tensor``.  Dense pair
        operators are the rank-first-backed intermediates themselves; sparse
        ones are wrapped as
        :class:`~repro.trees.sparse_pp.SemiSparsePairOperator`, and a sparse
        ``M_p^(n)`` is one fiber contraction of its neighbouring pair with the
        factor of the other mode (Eq. 4: ``M^(n) = M^(n,m) x_m A^(m)``).
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
        if provider is not None and not _holds(provider.tensor, tensor):
            raise ValueError("provider is bound to a different tensor")
        if isinstance(provider, AmortizedTreeMTTKRP):
            for a, b in zip(provider.factors, factors):
                if a.shape != b.shape or not np.array_equal(a, b):
                    raise ValueError(
                        "provider factors must equal the checkpoint factors when "
                        "sharing its cache"
                    )
            tree = provider
        else:
            tree = make_provider("dt", tensor, factors, max_cache_bytes=max_cache_bytes)

        # route the descents' accounting to the build's, restoring after — a
        # shared provider keeps tracking its own sweeps afterwards
        prev_tracker, tree.tracker = tree.tracker, tracker
        try:
            pair_ops = {}
            for i, j in combinations(range(order), 2):
                op = tree.partial_mttkrp((i, j))
                if sparse:
                    semi = op
                    op = SemiSparsePairOperator(
                        (i, j), semi.fibers, semi.block, (tensor.shape[i], tensor.shape[j]),
                        pattern=tree._pair_patterns.get((i, j)))
                    tree._pair_patterns[i, j] = op.pattern
                    semi.block = op.block  # same values; the cache's copy is freed
                pair_ops[i, j] = op
            single_ops = {}
            for n in range(order):
                if not sparse:
                    single_ops[n] = tree.partial_mttkrp((n,))
                elif n < order - 1:
                    single_ops[n] = pair_ops[n, n + 1].contract_other(
                        tree.factors[n + 1], 0, tracker=tracker)
                else:
                    single_ops[n] = pair_ops[n - 1, n].contract_other(
                        tree.factors[n - 1], 1, tracker=tracker)
        finally:
            tree.tracker = prev_tracker
        return cls(pair_ops, single_ops)


def _holds(held, tensor) -> bool:
    """Whether a provider's ``held`` tensor is ``tensor``'s data.

    Identity is the fast path (the drivers hand the provider's own tensor
    back); else the dense values, or the COO shape, indices and values, are
    compared — a provider may hold a normalized copy (dtype, contiguity), and
    a same-shaped different tensor (or an overlapping view of the same
    buffer) would silently mix cached contractions of the wrong data.  The
    ``O(size)`` check is negligible next to the build.
    """
    if held is tensor:
        return True
    if is_sparse_tensor(held) != is_sparse_tensor(tensor) or held.shape != tensor.shape:
        return False
    if is_sparse_tensor(tensor):
        return (np.array_equal(held.indices, tensor.indices)
                and np.array_equal(held.values, tensor.values))
    return bool(np.array_equal(held, tensor))
