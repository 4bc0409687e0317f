"""The shared sweep kernel and the per-mode factor update rules.

Everything below the drivers — the MTTKRP engines, the CSF layouts, the
versioned tree caches, the distributed blocks — is decomposition-agnostic:
what distinguishes plain CP-ALS from nonnegative CP (HALS or multiplicative
updates) or from masked/weighted ALS is only *what happens to the MTTKRP
result* once it is on hand.  This module factors exactly that step out of the
drivers:

* an :class:`UpdateRule` receives the per-mode MTTKRP ``M^(n)`` together with
  the cached Gram matrices (as the Hadamard chain ``Gamma^(n)`` of Eq. 1) and
  returns the new factor panel ``A^(n)``;
* :func:`sweep` is the one shared sweep kernel: it walks the modes, asks the
  bound :class:`~repro.trees.base.MTTKRPProvider` for each ``M^(n)``, applies
  the rule, and refreshes the Gram matrices — every sequential driver
  (:func:`~repro.core.cp_als.cp_als`, :func:`~repro.core.pp_cp_als.pp_cp_als`
  and the new :func:`~repro.core.nn_cp_als.nn_cp_als` /
  :func:`~repro.core.masked_cp_als.masked_cp_als`) runs its exact sweeps
  through it (as :class:`repro.core.loop.SequentialRun`), and the parallel
  drivers route their per-chunk solves through the same rule objects (see
  :func:`repro.core.parallel_common.parallel_mode_update`).

Update rules are **row-separable**: ``update_rows`` maps a block of MTTKRP
rows plus the matching block of current factor rows to a block of updated
rows, independently of every other row.  That is what lets the distributed
drivers apply any rule per reduce-scattered chunk and still reproduce the
sequential iterates bit-for-bit — the same All-Gather pattern as Algorithm 3
serves least-squares, HALS and multiplicative updates alike.

Registered rules
----------------

``least_squares``
    The paper's update ``A^(n) = M^(n) Gamma^(n)+`` via
    :func:`~repro.core.normal_equations.solve_normal_equations`.
``hals``
    Hierarchical ALS for nonnegative CP: exact cyclic column-wise
    minimization with projection onto the nonnegative orthant (the default of
    :func:`~repro.core.nn_cp_als.nn_cp_als`).
``multiplicative``
    Lee–Seung multiplicative updates for nonnegative CP.
``masked_least_squares``
    EM-style weighted least squares over an observed-entry mask: the raw
    MTTKRP (taken over the zero-filled / observed tensor) is corrected with
    the current model's contribution on the unobserved entries, then solved
    exactly — equivalent to one ALS sweep on the dense tensor whose
    unobserved entries hold the sweep-start model values.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.normal_equations import gamma_chain, gram_matrix, solve_normal_equations
from repro.sparse.ordering import lex_order
from repro.tensor.norms import inner_product, residual_from_mttkrp

__all__ = [
    "UpdateRule",
    "LeastSquaresUpdate",
    "HalsUpdate",
    "MultiplicativeUpdate",
    "MaskedLeastSquaresUpdate",
    "make_update_rule",
    "available_update_rules",
    "cp_values_at",
    "sweep",
]


def cp_values_at(indices: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Values of the CP model ``[[A^(1), ..., A^(N)]]`` at sparse coordinates.

    ``indices`` is an ``(nnz, N)`` integer coordinate matrix (the convention
    of :class:`repro.sparse.CooTensor`); the result is the length-``nnz``
    vector ``sum_r prod_n A^(n)[i_n, r]`` computed in ``O(nnz * R * N)`` by
    row gathers — no dense reconstruction.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2 or indices.shape[1] != len(factors):
        raise ValueError(
            f"indices must have shape (nnz, {len(factors)}), got {indices.shape}"
        )
    if indices.shape[0] == 0:
        return np.zeros(0, dtype=np.result_type(*(f.dtype for f in factors), np.float64))
    rows = np.asarray(factors[0])[indices[:, 0], :].copy()
    for mode in range(1, len(factors)):
        rows *= np.asarray(factors[mode])[indices[:, mode], :]
    return rows.sum(axis=1)


class UpdateRule:
    """One per-mode factor update: MTTKRP + Gram matrices -> new factor panel.

    Subclasses implement :meth:`update_rows`; the remaining hooks have
    do-nothing defaults so simple rules stay two methods long.  A rule object
    may hold per-run state (the masked rule caches its sweep-start model), so
    drivers create one rule per run — :func:`make_update_rule` is cheap.

    Hook call order inside :func:`sweep` for each sweep::

        start_sweep(provider, grams)
        for mode in modes:
            gamma = gamma_chain(grams, mode)
            m     = provider.mttkrp(mode)
            m     = adjust_mttkrp(mode, m, provider, grams)
            a     = update_rows(mode, gamma, m, provider.factors[mode])
            provider.set_factor(mode, a); post_update(mode, a, provider)
            grams[mode] = gram_matrix(a)
    """

    #: registry name, overridden by subclasses
    name = "abstract"
    #: rules that guarantee nonnegative factor panels (given nonnegative input)
    nonnegative = False
    #: rules that only run on the sequential drivers (per-run state that does
    #: not decompose into independent row blocks across ranks)
    sequential_only = False

    # -- per-sweep hooks -----------------------------------------------------
    def start_sweep(self, provider, grams, tracker=None) -> None:
        """Called once at the top of every sweep (default: no-op)."""

    def adjust_mttkrp(self, mode, mttkrp, provider, grams, tracker=None) -> np.ndarray:
        """Transform the raw provider MTTKRP before the update (default: identity)."""
        return mttkrp

    def post_update(self, mode, factor, provider) -> None:
        """Called right after the provider accepted the new panel (default: no-op)."""

    # -- the update ----------------------------------------------------------
    def update_rows(self, mode, gamma, mttkrp_rows, factor_rows, tracker=None) -> np.ndarray:
        """New factor rows from MTTKRP rows, ``Gamma`` and the current rows.

        Must be row-separable: applying it to a vertical slice of
        ``mttkrp_rows`` / ``factor_rows`` yields the matching slice of the
        full update (the distributed drivers rely on this).
        """
        raise NotImplementedError

    def rows_flops(self, rows: int, rank: int) -> int:
        """Flop estimate of :meth:`update_rows` on ``rows`` rows (accounting)."""
        return rank**3 // 3 + 2 * rows * rank * rank

    # -- residual ------------------------------------------------------------
    def residual(self, norm_t, last_mttkrp, provider, grams) -> float:
        """Relative residual after a sweep (default: amortized Eq. 3)."""
        return residual_from_mttkrp(
            norm_t, last_mttkrp, provider.factors[-1], grams,
            last_mode=provider.order - 1,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class LeastSquaresUpdate(UpdateRule):
    """The paper's exact update ``A^(n) = M^(n) Gamma^(n)+`` (Eq. 1)."""

    name = "least_squares"

    def update_rows(self, mode, gamma, mttkrp_rows, factor_rows, tracker=None) -> np.ndarray:
        return solve_normal_equations(gamma, mttkrp_rows, tracker=tracker)


class HalsUpdate(UpdateRule):
    """Hierarchical ALS: cyclic exact column minimization projected onto >= 0.

    For each rank-one component ``r`` the quadratic subproblem in the single
    column ``a_r`` has the closed-form minimizer
    ``a_r = max(0, a_r + (M[:, r] - A Gamma[:, r]) / Gamma[r, r])``; cycling
    through the columns with the freshest values (Gauss–Seidel) makes every
    step an exact block-coordinate descent, so the objective — and therefore
    the recorded residual — is monotone non-increasing.
    """

    name = "hals"
    nonnegative = True

    def update_rows(self, mode, gamma, mttkrp_rows, factor_rows, tracker=None) -> np.ndarray:
        gamma = np.asarray(gamma, dtype=np.float64)
        mttkrp = np.asarray(mttkrp_rows, dtype=np.float64)
        factor = np.array(factor_rows, dtype=np.float64, copy=True)
        rank = gamma.shape[0]
        start = time.perf_counter()
        for r in range(rank):
            denom = float(gamma[r, r])
            if denom <= 0.0:
                # every other factor has a zero column r: the component is
                # dead and its panel column is set to zero
                factor[:, r] = 0.0
                continue
            step = (mttkrp[:, r] - factor @ gamma[:, r]) / denom
            np.maximum(factor[:, r] + step, 0.0, out=factor[:, r])
        elapsed = time.perf_counter() - start
        if tracker is not None:
            tracker.add_flops("solve", self.rows_flops(factor.shape[0], rank))
            tracker.add_seconds("solve", elapsed)
        return factor

    def rows_flops(self, rows: int, rank: int) -> int:
        # per column: one (rows x rank) mat-vec plus O(rows) vector updates
        return 2 * rows * rank * rank + 4 * rows * rank


class MultiplicativeUpdate(UpdateRule):
    """Lee–Seung multiplicative update ``A <- A * M / (A Gamma)``.

    Monotone non-increasing in the Frobenius objective for elementwise
    nonnegative tensors and factors; ``eps`` guards the denominator so a
    zero-activation row stays zero instead of dividing by zero.
    """

    name = "multiplicative"
    nonnegative = True

    def __init__(self, eps: float = 1.0e-12):
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    def update_rows(self, mode, gamma, mttkrp_rows, factor_rows, tracker=None) -> np.ndarray:
        gamma = np.asarray(gamma, dtype=np.float64)
        mttkrp = np.asarray(mttkrp_rows, dtype=np.float64)
        factor = np.asarray(factor_rows, dtype=np.float64)
        start = time.perf_counter()
        # the MTTKRP of a nonnegative tensor with nonnegative factors is
        # nonnegative up to rounding; the clamp keeps tiny negative noise from
        # flipping a panel entry's sign
        numer = np.maximum(mttkrp, 0.0)
        denom = factor @ gamma + self.eps
        updated = factor * (numer / denom)
        elapsed = time.perf_counter() - start
        if tracker is not None:
            tracker.add_flops("solve", self.rows_flops(factor.shape[0], gamma.shape[0]))
            tracker.add_seconds("solve", elapsed)
        return updated

    def rows_flops(self, rows: int, rank: int) -> int:
        return 2 * rows * rank * rank + 3 * rows * rank


class MaskedLeastSquaresUpdate(UpdateRule):
    """EM-style weighted least squares over an observed-entry mask.

    The bound provider's tensor is the *observed* data (a zero-filled dense
    array or the observed :class:`~repro.sparse.CooTensor`), so its MTTKRP
    ``M_obs^(n)`` only sees observed entries.  One sweep of this rule equals
    one exact ALS sweep on the imputed tensor

    ``T_fill = W o T + (1 - W) o [[A_chk]]``

    where ``A_chk`` are the sweep-start factors: by linearity

    ``M_fill^(n) = M_obs^(n) + M_cp^(n) - M_model_obs^(n)``

    with ``M_cp^(n) = A_chk^(n) (o.prod_{m != n} A_chk^(m)^T A^(m))`` the
    cross-Gram MTTKRP of the full model (factor-sized work only) and
    ``M_model_obs^(n)`` the sparse MTTKRP of the model restricted to the mask
    pattern (``O(nnz R N)`` through the COO kernel).  Unobserved input
    entries are never read, so a dense run over the zero-filled array and a
    sparse run over the observed ``CooTensor`` produce identical iterates.

    The reported residual is the *weighted* one,
    ``||W o (T - [[A]])||_F / ||W o T||_F``, evaluated exactly from the raw
    observed MTTKRP plus one model gather per sweep.
    """

    name = "masked_least_squares"
    sequential_only = True

    def __init__(self, mask_indices: np.ndarray, shape: Sequence[int]):
        mask_indices = np.ascontiguousarray(np.asarray(mask_indices), dtype=np.int64)
        if mask_indices.ndim != 2 or mask_indices.shape[1] != len(tuple(shape)):
            raise ValueError(
                f"mask_indices must have shape (nnz, {len(tuple(shape))}), "
                f"got {mask_indices.shape}"
            )
        # canonical COO order (sorted, deduplicated) — the per-sweep model
        # tensor is built with CooTensor._from_canonical off this pattern
        order, starts = lex_order(mask_indices.T, shape)
        if order is not None or starts.size < mask_indices.shape[0]:
            mask_indices = mask_indices[starts if order is None else order[starts]]
        self.mask_indices = mask_indices
        self.shape = tuple(int(s) for s in shape)
        self._checkpoint: list[np.ndarray] | None = None
        self._model_coo = None
        self._last_raw: np.ndarray | None = None

    @property
    def n_observed(self) -> int:
        """Number of observed entries (the mask pattern's nonzero count)."""
        return int(self.mask_indices.shape[0])

    def start_sweep(self, provider, grams, tracker=None) -> None:
        from repro.sparse.coo import CooTensor  # local import avoids a cycle

        self._checkpoint = [f.copy() for f in provider.factors]
        values = cp_values_at(self.mask_indices, self._checkpoint)
        # the mask pattern is canonical (sorted, deduplicated) by CooTensor
        # construction, so the per-sweep model tensor skips re-sorting
        self._model_coo = CooTensor._from_canonical(
            self.mask_indices, np.ascontiguousarray(values, dtype=np.float64),
            self.shape,
        )
        if tracker is not None:
            order, rank = len(self.shape), provider.rank
            tracker.add_flops("mttkrp", self.n_observed * rank * order)

    def adjust_mttkrp(self, mode, mttkrp, provider, grams, tracker=None) -> np.ndarray:
        from repro.sparse.mttkrp import sparse_mttkrp  # local import avoids a cycle

        assert self._checkpoint is not None and self._model_coo is not None
        self._last_raw = mttkrp
        chk = self._checkpoint
        factors = provider.factors
        rank = chk[0].shape[1]
        # full-model cross-Gram MTTKRP: A_chk^(n) @ hadamard_{m != n}(A_chk^(m)^T A^(m))
        start = time.perf_counter()
        cross = np.ones((rank, rank))
        flops = 0
        for m in range(len(chk)):
            if m == mode:
                continue
            cross *= chk[m].T @ np.asarray(factors[m], dtype=np.float64)
            flops += 2 * chk[m].shape[0] * rank * rank + rank * rank
        model_full = chk[mode] @ cross
        flops += 2 * chk[mode].shape[0] * rank * rank
        elapsed = time.perf_counter() - start
        if tracker is not None:
            tracker.add_flops("mttkrp", flops)
            tracker.add_seconds("mttkrp", elapsed)
        model_obs = sparse_mttkrp(
            self._model_coo, [np.asarray(f, dtype=np.float64) for f in factors],
            mode, tracker=tracker,
        )
        return np.asarray(mttkrp, dtype=np.float64) + model_full - model_obs

    def update_rows(self, mode, gamma, mttkrp_rows, factor_rows, tracker=None) -> np.ndarray:
        return solve_normal_equations(gamma, mttkrp_rows, tracker=tracker)

    def residual(self, norm_t, last_mttkrp, provider, grams) -> float:
        """Weighted relative residual ``||W o (T - [[A]])||_F / ||W o T||_F``.

        ``norm_t`` is the observed-entry norm ``||W o T||_F``.  The cross term
        uses the *raw* observed MTTKRP of the last mode (whose other-mode
        factors are already final) and the model norm comes from one exact
        gather over the mask pattern — no approximation is involved, unlike
        the amortized Eq. 3 under PP.
        """
        assert self._last_raw is not None
        if norm_t <= 0.0:
            raise ValueError("observed-entry norm must be positive")
        model_values = cp_values_at(self.mask_indices, provider.factors)
        model_norm_sq = float(model_values @ model_values)
        cross = inner_product(self._last_raw, provider.factors[-1])
        residual_sq = norm_t**2 + model_norm_sq - 2.0 * cross
        lower_bound = (norm_t - float(np.sqrt(model_norm_sq))) ** 2
        return float(np.sqrt(max(residual_sq, lower_bound, 0.0)) / norm_t)


_RULES = {
    "least_squares": LeastSquaresUpdate,
    "hals": HalsUpdate,
    "multiplicative": MultiplicativeUpdate,
    "masked_least_squares": MaskedLeastSquaresUpdate,
}


def available_update_rules() -> list[str]:
    """Canonical rule names accepted by :func:`make_update_rule`."""
    return ["least_squares", "hals", "multiplicative", "masked_least_squares"]


def make_update_rule(name: str | UpdateRule | None = None, **params) -> UpdateRule:
    """Construct the update rule ``name`` (default ``least_squares``).

    An :class:`UpdateRule` instance passes through unchanged (``params`` must
    then be empty); ``None`` selects the exact least-squares rule.  Extra
    keyword arguments go to the rule constructor — e.g.
    ``make_update_rule("multiplicative", eps=1e-10)`` or the mask geometry of
    ``masked_least_squares``.
    """
    if isinstance(name, UpdateRule):
        if params:
            raise TypeError("cannot pass constructor params with a rule instance")
        return name
    key = "least_squares" if name is None else name
    if key not in _RULES:
        raise ValueError(
            f"unknown update rule {name!r}; available: {available_update_rules()}"
        )
    return _RULES[key](**params)


def sweep(provider, grams, rule: UpdateRule | None = None, tracker=None) -> np.ndarray:
    """Run one full sweep in place and return the last mode's (adjusted) MTTKRP.

    The shared kernel behind every sequential driver: updates
    ``provider.factors`` (via :meth:`~repro.trees.base.MTTKRPProvider.set_factor`)
    and ``grams`` mode by mode under ``rule`` (default: exact least squares).
    The returned ``M^(N-1)`` together with the refreshed Gram matrices is
    everything Eq. (3) — or the rule's own :meth:`UpdateRule.residual` —
    needs to evaluate the residual without touching the tensor again.
    """
    rule = make_update_rule(rule)
    rule.start_sweep(provider, grams, tracker=tracker)
    order = provider.order
    last_mttkrp: np.ndarray | None = None
    for mode in range(order):
        gamma = gamma_chain(grams, mode, tracker=tracker)
        mttkrp_result = provider.mttkrp(mode)
        mttkrp_result = rule.adjust_mttkrp(mode, mttkrp_result, provider, grams,
                                           tracker=tracker)
        updated = rule.update_rows(mode, gamma, mttkrp_result,
                                   provider.factors[mode], tracker=tracker)
        provider.set_factor(mode, updated)
        rule.post_update(mode, updated, provider)
        grams[mode] = gram_matrix(updated, tracker=tracker)
        last_mttkrp = mttkrp_result
    assert last_mttkrp is not None
    return last_mttkrp
