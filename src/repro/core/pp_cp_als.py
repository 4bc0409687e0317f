"""Pairwise-perturbation CP-ALS (Algorithm 2 of the paper).

The driver alternates between two regimes:

* **exact sweeps** using a dimension-tree MTTKRP engine (MSDT by default, as
  in the paper's implementation), tracking the per-sweep factor steps
  ``dA^(i)``;
* once every step is relatively small (``||dA^(i)||_F < pp_tol ||A^(i)||_F``
  for all ``i``), a **PP phase**: the pairwise operators are built at the
  current factors (the *initialization step*), and cheap *approximated sweeps*
  (Eqs. 5-8) run until some factor drifts too far from the checkpoint, after
  which an exact sweep is performed and convergence is re-evaluated.

The stop rule is :func:`~repro.core.cp_als.cp_als`'s on exact numbers: two
*exact* residuals one sweep apart, the exact sweep after a PP phase judged
against the residual Eq. (3) gives from its own first MTTKRP.  An approximated
residual only ever ends a phase (``docs/algorithms.rst``, "PP control loop").

Every phase is recorded as sweep records of type ``"als"``, ``"pp-init"`` or
``"pp-approx"`` — the statistics behind Tables III and IV and Figures 4/5.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.core.initialization import prepare_als_inputs
from repro.core.normal_equations import gamma_chain, gram_matrix
from repro.core.pp_corrections import (
    delta_gram,
    fused_approx_update,
    log_pp_phase,
    pp_phase_end,
    pp_step_within_tolerance,
)
from repro.core.options import PPOptions, resolve_options
from repro.core.results import ALSResult, ResultBase, SweepRecord
from repro.core.updates import LeastSquaresUpdate, sweep
from repro.machine.cost_tracker import CostTracker
from repro.tensor.norms import residual_from_mttkrp
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider

__all__ = ["pp_cp_als"]


class _ExactSweepRule(LeastSquaresUpdate):
    """The exact update, keeping what Eq. (3) needs of each sweep's first MTTKRP:
    ``M^(0)`` is exact for the factors the sweep starts from, so their residual
    costs no tensor pass on any engine."""

    def adjust_mttkrp(self, mode, mttkrp, provider, grams, tracker=None):
        if mode == 0:
            self.start = (mttkrp, provider.factors[0], list(grams))
        return mttkrp


def _record_sweep(records, index, sweep_type, residual, elapsed, cumulative, tracker, before):
    delta = tracker.diff_since(before)
    records.append(
        SweepRecord(
            index=index,
            sweep_type=sweep_type,
            fitness=ResultBase.fitness_from_residual(residual),
            residual=residual,
            elapsed_seconds=elapsed,
            cumulative_seconds=cumulative,
            kernel_seconds=delta.seconds_by_category,
            flops=delta.flops_by_category,
        )
    )


def pp_cp_als(
    tensor: np.ndarray,
    rank: int | None = None,
    n_sweeps: int | None = None,
    tol: float | None = None,
    pp_tol: float | None = None,
    mttkrp: str | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    seed: int | np.random.Generator | None = None,
    tracker: CostTracker | None = None,
    record_sweeps: bool = True,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
    max_pp_sweeps_per_phase: int | None = None,
    max_cache_bytes: int | None = None,
    dtype: np.dtype | str | None = None,
    options: PPOptions | None = None,
) -> ALSResult:
    """CP decomposition via pairwise-perturbation ALS (Algorithm 2).

    Parameters
    ----------
    tensor, rank, tol, initial_factors, seed, tracker, record_sweeps, callback, dtype:
        As in :func:`repro.core.cp_als.cp_als` (the tensor may be a dense
        ndarray or a sparse :class:`repro.sparse.CooTensor`).
    n_sweeps:
        Upper bound on the total number of sweeps of any type (default 300,
        the paper's bound for the collinearity study).
    pp_tol:
        The PP tolerance ``epsilon`` of Algorithm 2 (0.2 for the paper's
        synthetic study, 0.1 — the default — for its application tensors).
    mttkrp:
        Engine used for the exact sweeps; the paper's implementation uses
        MSDT, which is the default.  On sparse inputs this resolves to the
        CSF-based semi-sparse MSDT (:mod:`repro.trees.sparse_dt`), so the
        exact sweeps amortize there too — and each PP initialization then
        builds its operators as semi-sparse descents off that same provider
        cache (:mod:`repro.trees.sparse_pp`) instead of re-reading the COO
        nonzeros once per mode pair, keeping the pair operators in fiber
        form for the approximated sweeps' first-order corrections.
    max_pp_sweeps_per_phase:
        Safety bound on consecutive approximated sweeps within one PP phase
        (default 200).
    options:
        A :class:`~repro.core.options.PPOptions` bundle carrying the settings
        above as one object; mutually exclusive with the legacy keywords
        (``DeprecationWarning`` when both are given, the keywords override).
    """
    opts = resolve_options(
        PPOptions, options,
        {"rank": rank, "n_sweeps": n_sweeps, "tol": tol, "pp_tol": pp_tol,
         "mttkrp": mttkrp, "seed": seed,
         "max_pp_sweeps_per_phase": max_pp_sweeps_per_phase},
    )
    rank, n_sweeps, tol, pp_tol, mttkrp, seed, max_pp_sweeps_per_phase = (
        opts.rank, opts.n_sweeps, opts.tol, opts.pp_tol, opts.mttkrp,
        opts.seed, opts.max_pp_sweeps_per_phase,
    )
    tracker = tracker if tracker is not None else CostTracker()
    tensor, factors, norm_t = prepare_als_inputs(
        tensor, rank, min_order=3, dtype=dtype,
        initial_factors=initial_factors, seed=seed,
    )

    provider = make_provider(mttkrp, tensor, factors, tracker=tracker,
                             max_cache_bytes=max_cache_bytes)
    order = provider.order
    grams = [gram_matrix(f, tracker=tracker) for f in provider.factors]
    # PP approximates the MTTKRP, not the update: the approximated sweeps run
    # the same exact least-squares rule as the shared sweep kernel
    rule = _ExactSweepRule()

    # Algorithm 2 line 2: dA^(i) <- A^(i), so the first iterations use exact sweeps.
    delta_factors = [f.copy() for f in provider.factors]

    records: list[SweepRecord] = []
    residual = 1.0
    previous_residual = np.inf
    converged = False
    cumulative = 0.0
    total_sweeps = 0
    # per-mode Mtilde workspaces, reused across every approximated sweep
    approx_workspaces: dict[int, np.ndarray] = {}
    run_start = time.perf_counter()

    def _sweeps_left() -> bool:
        return total_sweeps < n_sweeps

    while _sweeps_left():
        inner_sweeps, phase_end = 0, None
        # ------------------------------------------------------------------ PP phase
        if pp_step_within_tolerance(provider.factors, delta_factors, pp_tol):
            # PP initialization step (Algorithm 2 lines 6-9)
            phase_start = time.perf_counter()
            before = tracker.snapshot()
            checkpoint = [f.copy() for f in provider.factors]
            delta_factors = [np.zeros_like(f) for f in provider.factors]
            operators = PairwiseOperators.build(
                tensor, checkpoint, tracker=tracker, provider=provider
            )
            # dS^(i) = A^(i)^T dA^(i) (Eq. 8) is refreshed after each mode
            # update and carried from one approximated sweep to the next
            delta_grams = [np.zeros_like(g) for g in grams]
            elapsed = time.perf_counter() - phase_start
            cumulative += elapsed
            total_sweeps += 1
            if record_sweeps:
                _record_sweep(records, total_sweeps - 1, "pp-init", residual,
                              elapsed, cumulative, tracker, before)

            # PP approximated sweeps (Algorithm 2 lines 10-17)
            while (
                _sweeps_left()
                and inner_sweeps < max_pp_sweeps_per_phase
                and pp_step_within_tolerance(provider.factors, delta_factors, pp_tol)
            ):
                sweep_start = time.perf_counter()
                before = tracker.snapshot()
                # divergence guard: keep a restore point so a sweep whose
                # perturbative approximation has gone stale can be rolled back
                # (the outer loop then resumes with exact sweeps)
                residual_before = residual
                factors_backup = [f.copy() for f in provider.factors]
                grams_backup = [g.copy() for g in grams]
                delta_backup = [d.copy() for d in delta_factors]
                last_mttkrp_approx: np.ndarray | None = None
                for mode in range(order):
                    gamma = gamma_chain(grams, mode, tracker=tracker)
                    updated, approx = fused_approx_update(
                        operators, mode, provider.factors[mode],
                        delta_factors, grams, delta_grams, gamma, rule,
                        tracker=tracker,
                        out=approx_workspaces.get(mode),
                    )
                    approx_workspaces[mode] = approx
                    provider.set_factor(mode, updated)
                    delta_factors[mode] = updated - checkpoint[mode]
                    delta_grams[mode] = delta_gram(updated, delta_factors[mode], tracker=tracker)
                    grams[mode] = gram_matrix(updated, tracker=tracker)
                    last_mttkrp_approx = approx
                assert last_mttkrp_approx is not None
                residual = residual_from_mttkrp(
                    norm_t, last_mttkrp_approx, provider.factors[-1], grams,
                    last_mode=order - 1,
                )
                if residual > residual_before + 1e-2:
                    # the pairwise operators have drifted too far from the
                    # current factors: discard this sweep and return to exact
                    # ALS (Algorithm 2 line 19) rather than accept a step that
                    # increases the residual
                    for mode in range(order):
                        provider.set_factor(mode, factors_backup[mode])
                        grams[mode] = grams_backup[mode]
                        delta_factors[mode] = delta_backup[mode]
                    residual = residual_before
                    phase_end = "diverged"
                    break
                elapsed = time.perf_counter() - sweep_start
                cumulative += elapsed
                total_sweeps += 1
                inner_sweeps += 1
                if record_sweeps:
                    _record_sweep(records, total_sweeps - 1, "pp-approx", residual,
                                  elapsed, cumulative, tracker, before)
                if callback is not None:
                    callback(total_sweeps - 1, [f.copy() for f in provider.factors],
                             ResultBase.fitness_from_residual(residual))
                if abs(previous_residual - residual) < tol:
                    # Stalled: whether the run is done is for the exact sweep.
                    phase_end = "stalled"
                    break
                previous_residual = residual
            phase_end = phase_end or pp_phase_end(provider.factors, delta_factors, pp_tol)

        if not _sweeps_left():
            log_pp_phase(inner_sweeps, "budget")
            break

        # ------------------------------------------------------------- exact ALS sweep
        sweep_start = time.perf_counter()
        before = tracker.snapshot()
        factors_before = [f.copy() for f in provider.factors]
        last_mttkrp = sweep(provider, grams, rule=rule, tracker=tracker)
        residual = residual_from_mttkrp(
            norm_t, last_mttkrp, provider.factors[-1], grams, last_mode=order - 1
        )
        if inner_sweeps:
            # approximated sweeps moved the factors: judge this sweep from its own start
            previous_residual = residual_from_mttkrp(norm_t, *rule.start, last_mode=0)
        delta_factors = [
            provider.factors[i] - factors_before[i] for i in range(order)
        ]
        elapsed = time.perf_counter() - sweep_start
        cumulative += elapsed
        total_sweeps += 1
        if record_sweeps:
            _record_sweep(records, total_sweeps - 1, "als", residual, elapsed,
                          cumulative, tracker, before)
        if callback is not None:
            callback(total_sweeps - 1, [f.copy() for f in provider.factors],
                     ResultBase.fitness_from_residual(residual))
        converged = abs(previous_residual - residual) < tol
        log_pp_phase(inner_sweeps, phase_end, converged)
        if converged:
            break
        previous_residual = residual

    total_elapsed = time.perf_counter() - run_start
    return ALSResult(
        factors=[f.copy() for f in provider.factors],
        fitness=ResultBase.fitness_from_residual(residual),
        residual=residual,
        n_sweeps=total_sweeps,
        converged=converged,
        sweeps=records,
        tracker=tracker,
        elapsed_seconds=total_elapsed,
        options={
            "rank": rank,
            "n_sweeps": n_sweeps,
            "tol": tol,
            "pp_tol": pp_tol,
            "mttkrp": mttkrp,
            "dtype": str(tensor.dtype),
        },
    )
