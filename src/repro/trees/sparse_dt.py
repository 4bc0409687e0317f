"""CSF-based sparse dimension-tree MTTKRP providers (``dt``/``msdt`` on COO).

The dense dimension tree amortizes one ALS sweep's MTTKRPs by caching
partially contracted intermediates ``M^(S)`` (Eq. 4).  Over a sparse tensor
the same intermediates are *semi-sparse*: only the fibers — distinct
coordinate tuples over the remaining mode set ``S`` that carry at least one
nonzero — have nonzero rows, so an intermediate is stored as a
:class:`SemiSparseIntermediate`: an ``(n_fibers, |S|)`` sorted fiber-index
matrix plus an ``(n_fibers, R)`` dense block (the SPLATT-style "mode-``R``
semi-sparse tensor").

Two kinds of contraction step, both *fiber-run segmented sums* whose structure
is a :class:`~repro.sparse.csf.SegmentSum` operator (a SciPy CSR matrix)
cached with the sparsity pattern:

* **root contraction** — from the raw COO tensor, contract one factor
  ``A^(k)``: the :class:`~repro.sparse.csf.CsfTensor` layout for the ordering
  ``sorted(S) + (k,)`` (built once per ``k``, cached for the lifetime of the
  provider) stores the nonzeros grouped by ``S``-fiber, so the whole step is
  the single sparse-times-dense product ``csr @ A^(k)`` — values as data,
  mode-``k`` coordinates as column indices, the fiber pointer as ``indptr``;
  no gathered or scaled ``nnz x R`` temporary — ``O(nnz * R)`` work versus
  the dense tree's ``O(prod(shape) * R)`` TTM;
* **fiber contraction** — from a semi-sparse intermediate over ``S``,
  contract mode ``k`` in ``S``: parent fibers that agree outside ``k``
  collapse into one child fiber.  The regrouping permutation and run offsets
  depend only on the sparsity pattern, so they too are computed once per
  ``(S, k)`` pair and cached (:class:`_FiberStep`) with the permutation
  folded into the operator's column indices, leaving one elementwise product
  and one sparse product of ``O(n_fibers * R)`` work per sweep step.  The
  step that leaves a single mode sums straight into that mode's rows, so its
  block already is the dense ``(s_mode, R)`` MTTKRP — and since a placement
  needs no order among the parents, that step sorts nothing.

Every ordering here goes through :func:`repro.sparse.ordering.lex_order`:
one sort of the linearised child coordinate when ``prod`` of the child extents
fits int64, ``np.lexsort`` over the columns when it does not, and no sort when
the parents are in child order already (``k`` the last mode of ``S``).

Fiber steps route their elementwise product through the shared
:class:`~repro.contract.ContractionEngine`, and both steps record
flops/words/seconds in
the :class:`~repro.machine.cost_tracker.CostTracker` under the same
``"ttm"``/``"mttv"`` categories as the dense tree, so Figure-3-style
breakdowns compare directly.  The control flow (cache lookup, DT/MSDT descent
orders) is shared with the dense engines via :mod:`repro.trees.amortized` —
the produced MTTKRPs are bit-for-bit the same contractions, so ALS iterates
match the recompute engines to rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.sparse.coo import CooTensor
from repro.sparse.csf import CsfTensor, SegmentSum
from repro.sparse.ordering import lex_order
from repro.trees.amortized import AmortizedTreeMTTKRP, DtOrderPolicy, MsdtOrderPolicy

__all__ = [
    "SemiSparseIntermediate",
    "SparseTreeBackend",
    "SparseDimensionTreeMTTKRP",
    "SparseMultiSweepDimensionTree",
]


@dataclass
class SemiSparseIntermediate:
    """Partially contracted MTTKRP ``M^(S)`` restricted to its nonzero fibers.

    ``fibers[i]`` is the coordinate tuple of fiber ``i`` over the sorted
    remaining mode set ``modes`` (rows lexicographically sorted and unique);
    ``block[i]`` is its ``R``-vector.  Exposes ``nbytes`` so the versioned
    :class:`~repro.trees.cache.ContractionCache` can budget these entries
    exactly like dense intermediates.
    """

    modes: tuple[int, ...]
    fibers: np.ndarray
    block: np.ndarray

    @property
    def n_fibers(self) -> int:
        return int(self.fibers.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.fibers.nbytes + self.block.nbytes)

    def densify(self, shape: Sequence[int]) -> np.ndarray:
        """Expand to the full ``shape[modes] + (R,)`` array (tests / debugging)."""
        dims = tuple(int(shape[m]) for m in self.modes)
        out = np.zeros(dims + (self.block.shape[1],), dtype=self.block.dtype)
        if self.n_fibers:
            out[tuple(self.fibers.T)] = self.block
        return out


@dataclass(frozen=True)
class _RootStep:
    """Precomputed structure of the first-level contraction of mode ``k``.

    Derived from the CSF layout ordered ``sorted(S) + (k,)``: the nonzeros
    appear grouped by ``S``-fiber, so the contraction is the one product
    ``contract @ A^(k)``.
    """

    modes: tuple[int, ...]      # S = all modes except k, sorted
    fibers: np.ndarray          # (n_fibers, |S|)
    contract: SegmentSum        # (n_fibers, s_k): values at (fiber, k_coord)


@dataclass(frozen=True)
class _FiberStep:
    """Precomputed structure for contracting mode ``k`` out of fiber set ``S``.

    ``k_coords`` is each parent fiber's mode-``k`` coordinate; ``reduce`` sums
    the scaled parent rows into the rows ``out_fibers`` (a regrouping
    permutation, where there is one, is its column indices).  Those are the
    child fibers, except on the step that leaves a single mode: it sums
    straight into that mode's rows, so ``out_fibers`` is every coordinate of
    the mode and the block is the dense MTTKRP.

    The regrouping itself — the parent order that makes each child's parents
    adjacent, and the child runs — is not part of the step: only the steps
    that leave two or more modes read it
    (:meth:`SparseTreeBackend._regrouping`).
    """

    child_modes: tuple[int, ...]
    child_fibers: np.ndarray
    k_coords: np.ndarray
    reduce: SegmentSum
    out_fibers: np.ndarray


class SparseTreeBackend(AmortizedTreeMTTKRP):
    """Semi-sparse descent backend over CSF fiber structures.

    Structural state (CSF layouts, fiber regroupings) depends only on the
    tensor's sparsity pattern: it is built lazily on first use, cached for the
    provider's lifetime, and — unlike the factor-dependent intermediates in
    ``self.cache`` — never invalidated by factor updates and not counted
    against ``max_cache_bytes`` (index arrays, not rank-``R`` blocks).
    """

    def __init__(self, tensor, factors, tracker=None, max_cache_bytes=None,
                 engine=None):
        if not isinstance(tensor, CooTensor):
            raise TypeError(
                f"{type(self).__name__} expects a CooTensor, got "
                f"{type(tensor).__name__}"
            )
        super().__init__(tensor, factors, tracker=tracker,
                         max_cache_bytes=max_cache_bytes, engine=engine)
        self._csf: dict[tuple[int, ...], CsfTensor] = {}
        self._root_steps: dict[int, _RootStep] = {}
        self._fiber_steps: dict[tuple[tuple[int, ...], int], _FiberStep] = {}
        self._regroupings: dict[tuple[tuple[int, ...], int],
                                tuple[np.ndarray | None, np.ndarray]] = {}
        # {(i, j): (indices, indptr)} of the PP pair operators of
        # repro.trees.sparse_pp, shared by every checkpoint this provider serves
        self._pair_patterns: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._gather_buffer: np.ndarray | None = None  # see _gather_rows

    # -- structural caches (sparsity pattern only, never invalidated) --------
    def csf_layout(self, mode_order: Sequence[int]) -> CsfTensor:
        """The (cached) CSF layout of the tensor for ``mode_order``."""
        key = tuple(int(m) for m in mode_order)
        layout = self._csf.get(key)
        if layout is None:
            layout = CsfTensor.from_coo(self.tensor, key)
            self._csf[key] = layout
        return layout

    def _root_step(self, k: int) -> _RootStep:
        step = self._root_steps.get(k)
        if step is None:
            modes = tuple(m for m in range(self.order) if m != k)
            layout = self.csf_layout(modes + (k,))
            depth = self.order - 2
            step = _RootStep(
                modes=modes,
                fibers=layout.fiber_index(depth),
                contract=SegmentSum(layout.value_ptr(depth)[:-1], self.tensor.nnz,
                                    columns=layout.sorted_column(self.order - 1),
                                    n_columns=self.tensor.shape[k],
                                    weights=layout.values, dtype=self.dtype),
            )
            self._root_steps[k] = step
        return step

    def _regrouping(self, modes: tuple[int, ...], k: int,
                    fibers: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """``(perm, starts)`` regrouping the parent ``fibers`` once ``k`` is dropped.

        ``perm`` orders the parents so that those of one child fiber are
        adjacent (``None`` when they already are, e.g. ``k`` the last mode of
        ``modes``); ``starts`` delimits the child runs.  The one sort of a
        fiber step, done when somebody first reads it.
        """
        key = (modes, k)
        grouping = self._regroupings.get(key)
        if grouping is None:
            pos = modes.index(k)
            grouping = lex_order(
                np.delete(fibers, pos, axis=1).T,
                [self.tensor.shape[m] for m in modes if m != k])
            self._regroupings[key] = grouping
        return grouping

    def _fiber_step(self, modes: tuple[int, ...], k: int,
                    fibers: np.ndarray) -> _FiberStep:
        key = (modes, k)
        step = self._fiber_steps.get(key)
        if step is not None:
            return step
        pos = modes.index(k)
        child_modes = modes[:pos] + modes[pos + 1:]
        n_parents = fibers.shape[0]
        if len(child_modes) == 1:
            # each parent's output row is its coordinate along the mode left:
            # a placement, which needs no order among the parents
            n_out = self.tensor.shape[child_modes[0]]
            rows = fibers[:, 1 - pos]
            reduce = SegmentSum.scatter(rows, n_out, dtype=self.dtype)
            child_fibers = np.flatnonzero(np.bincount(rows, minlength=n_out))[:, None]
            out_fibers = np.arange(n_out, dtype=np.int64)[:, None]
        else:
            perm, starts = self._regrouping(modes, k, fibers)
            first = starts if perm is None else perm[starts]
            child_fibers = out_fibers = np.delete(fibers[first], pos, axis=1)
            reduce = SegmentSum(starts, n_parents, columns=perm,
                                n_columns=n_parents, dtype=self.dtype)
        step = _FiberStep(child_modes=child_modes, child_fibers=child_fibers,
                          k_coords=np.ascontiguousarray(fibers[:, pos]),
                          reduce=reduce, out_fibers=out_fibers)
        self._fiber_steps[key] = step
        return step

    # -- contraction kernels -------------------------------------------------
    def _gather_rows(self, k: int, coords: np.ndarray) -> np.ndarray:
        """``A^(k)[coords]`` written into the provider's one gather workspace.

        The gathered rows are a sweep's only ``n_fibers``-long temporary.
        Allocated afresh per fiber step, whether malloc hands back pages
        that are still mapped depends on the process's allocation history
        (glibc's adaptive mmap and trim thresholds): the sweep then pays a
        page fault per 4 KiB of rows in some processes and none in others.
        One buffer, grown to the largest step, faults once.
        """
        n_rows = coords.shape[0]
        if self._gather_buffer is None or self._gather_buffer.shape[0] < n_rows:
            self._gather_buffer = np.empty((n_rows, self.rank), dtype=self.dtype)
        rows = self._gather_buffer[:n_rows]
        # the coordinates are validated tensor indices; "clip" writes
        # straight into ``rows`` where "raise" would buffer the result
        np.take(self.factors[k], coords, axis=0, out=rows, mode="clip")
        return rows

    def _root_contract(self, k: int) -> SemiSparseIntermediate:
        """First-level contraction ``M^(S)``, ``S = {0..N-1} \\ {k}``, from COO."""
        step = self._root_step(k)
        rank = self.rank
        start = time.perf_counter()
        block = step.contract @ self.factors[k]
        elapsed = time.perf_counter() - start
        if self.tracker is not None:
            nnz = self.tensor.nnz
            # one multiply + one (segment-)add per nonzero per rank column
            self.tracker.add_flops("ttm", 2 * nnz * rank)
            self.tracker.add_vertical_words(
                nnz * (2 + rank) + step.fibers.size + block.size
            )
            self.tracker.add_seconds("ttm", elapsed)
        return SemiSparseIntermediate(modes=step.modes, fibers=step.fibers,
                                      block=block)

    def _contract_fiber_mode(self, semi: SemiSparseIntermediate,
                             k: int) -> SemiSparseIntermediate:
        """Contract mode ``k`` out of a semi-sparse intermediate."""
        step = self._fiber_step(semi.modes, k, semi.fibers)
        rank = self.rank
        start = time.perf_counter()
        rows = self._gather_rows(k, step.k_coords)
        # scaled in place; the product below allocates the only new block
        self.engine.contract("fr,fr->fr", semi.block, rows, out=rows)
        block = step.reduce @ rows
        elapsed = time.perf_counter() - start
        if self.tracker is not None:
            n_fibers = semi.n_fibers
            self.tracker.add_flops("mttv", 2 * n_fibers * rank)
            # the model counts the child fibers, whatever rows the block has
            self.tracker.add_vertical_words(
                n_fibers * (2 + 2 * rank) + step.child_fibers.shape[0] * rank
            )
            self.tracker.add_seconds("mttv", elapsed)
        return SemiSparseIntermediate(modes=step.child_modes,
                                      fibers=step.out_fibers, block=block)

    # -- backend hooks -------------------------------------------------------
    def _descend_semi(
        self,
        start_modes: Sequence[int],
        start_intermediate: SemiSparseIntermediate | None,
        base_versions: Mapping[int, int],
        order_list: Sequence[int],
    ) -> SemiSparseIntermediate:
        """Contract ``order_list`` away, returning the semi-sparse result.

        Every intermediate produced along the way is inserted into the
        versioned cache, so later descents — a sweep's next mode update *or* a
        pairwise-perturbation operator build — resume from the deepest valid
        ancestor.  The target mode set may therefore have any size >= 1; the
        MTTKRP path finalizes single-mode results, the PP operator builder
        (:mod:`repro.trees.sparse_pp`) densifies pairs.
        """
        remaining = sorted(int(m) for m in start_modes)
        versions_used = dict(base_versions)
        order_list = [int(k) for k in order_list]
        semi = start_intermediate
        if semi is None:
            if not order_list:
                raise ValueError(
                    "a descent from the raw tensor must contract at least one mode"
                )
            k0 = order_list[0]
            semi = self._root_contract(k0)
            versions_used[k0] = self.versions[k0]
            remaining.remove(k0)
            self.cache.put(remaining, semi, versions_used)
            order_list = order_list[1:]
        for k in order_list:
            semi = self._contract_fiber_mode(semi, k)
            versions_used[k] = self.versions[k]
            remaining.remove(k)
            self.cache.put(remaining, semi, versions_used)
        return semi

    def _descend_from(
        self,
        start_modes: Sequence[int],
        start_intermediate: SemiSparseIntermediate | None,
        base_versions: Mapping[int, int],
        order_list: Sequence[int],
    ) -> np.ndarray:
        return self._finalize(
            self._descend_semi(start_modes, start_intermediate, base_versions,
                               order_list)
        )

    def _finalize(self, semi: SemiSparseIntermediate) -> np.ndarray:
        """The single-mode intermediate as the dense ``(s_mode, R)`` MTTKRP."""
        (mode,) = semi.modes
        if semi.n_fibers == self.tensor.shape[mode]:
            # fiber rows are sorted and unique, so every row is present and in
            # place (always so after a last fiber step's full-height sum)
            return semi.block
        out = np.zeros((self.tensor.shape[mode], self.rank), dtype=self.dtype)
        if semi.n_fibers:
            out[semi.fibers[:, 0]] = semi.block  # fiber rows are unique
        return out

    def _order1_mttkrp(self) -> np.ndarray:
        out = np.zeros((self.tensor.shape[0], self.rank), dtype=self.dtype)
        if self.tensor.nnz:
            out[self.tensor.indices[:, 0]] = self.tensor.values[:, None]
        return out

    # -- diagnostics ---------------------------------------------------------
    def structure_stats(self) -> dict:
        """Sizes of the pattern-only structural caches (not factor data)."""
        operators = [s.contract for s in self._root_steps.values()]
        operators += [s.reduce for s in self._fiber_steps.values()]
        pair_arrays = [a for pattern in self._pair_patterns.values() for a in pattern]
        return {
            "csf_layouts": len(self._csf),
            "csf_bytes": sum(c.nbytes for c in self._csf.values()),
            "fiber_steps": len(self._fiber_steps),
            "fiber_step_bytes": sum(
                s.child_fibers.nbytes + s.k_coords.nbytes
                for s in self._fiber_steps.values()
            ) + sum(
                starts.nbytes + (perm.nbytes if perm is not None else 0)
                for perm, starts in self._regroupings.values()
            ),
            "operators": len(operators) + len(self._pair_patterns),
            "operator_bytes": sum(op.nbytes for op in operators + pair_arrays),
        }


class SparseDimensionTreeMTTKRP(DtOrderPolicy, SparseTreeBackend):
    """Per-sweep binary dimension tree over semi-sparse CSF intermediates."""

    name = "dt"


class SparseMultiSweepDimensionTree(MsdtOrderPolicy, SparseTreeBackend):
    """Cross-sweep MSDT over semi-sparse CSF intermediates."""

    name = "msdt"
