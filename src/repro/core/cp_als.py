"""Sequential CP-ALS (Algorithm 1 of the paper) with pluggable MTTKRP engines."""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.core.initialization import prepare_als_inputs
from repro.core.normal_equations import gram_matrix
from repro.core.options import ALSOptions, resolve_options
from repro.core.results import ALSResult, ResultBase, SweepRecord
from repro.core.updates import UpdateRule, make_update_rule, sweep
from repro.machine.cost_tracker import CostTracker
from repro.trees.base import MTTKRPProvider
from repro.trees.registry import make_provider

__all__ = ["cp_als", "run_regular_sweep", "run_als_loop"]


def run_regular_sweep(
    provider: MTTKRPProvider,
    grams: list[np.ndarray],
    tracker: CostTracker | None,
) -> np.ndarray:
    """Run one exact ALS sweep in place and return the last mode's MTTKRP.

    Thin wrapper over the shared kernel :func:`repro.core.updates.sweep` with
    the exact least-squares rule — kept for backward compatibility.
    """
    return sweep(provider, grams, rule=None, tracker=tracker)


def run_als_loop(
    provider: MTTKRPProvider,
    grams: list[np.ndarray],
    norm_t: float,
    rule: UpdateRule,
    n_sweeps: int,
    tol: float,
    tracker: CostTracker,
    record_sweeps: bool = True,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
) -> tuple[float, bool, int, list[SweepRecord], float]:
    """The shared sequential driver loop over :func:`repro.core.updates.sweep`.

    Runs up to ``n_sweeps`` sweeps of ``rule`` on ``provider``/``grams``,
    evaluating the rule's residual after each, recording
    :class:`~repro.core.results.SweepRecord` entries and honoring the
    ``|r_prev - r| < tol`` stopping criterion.  Returns ``(residual,
    converged, sweeps_run, records, total_elapsed_seconds)`` —
    :func:`cp_als`, :func:`~repro.core.nn_cp_als.nn_cp_als` and
    :func:`~repro.core.masked_cp_als.masked_cp_als` all run through here.
    """
    records: list[SweepRecord] = []
    residual = 1.0
    previous_residual = np.inf
    converged = False
    cumulative = 0.0
    run_start = time.perf_counter()
    sweeps_run = 0

    for sweep_index in range(n_sweeps):
        sweep_start = time.perf_counter()
        before = tracker.snapshot()
        last_mttkrp = sweep(provider, grams, rule=rule, tracker=tracker)
        residual = rule.residual(norm_t, last_mttkrp, provider, grams)
        elapsed = time.perf_counter() - sweep_start
        cumulative += elapsed
        sweeps_run = sweep_index + 1
        fitness = ResultBase.fitness_from_residual(residual)
        if record_sweeps:
            delta = tracker.diff_since(before)
            records.append(
                SweepRecord(
                    index=sweep_index,
                    sweep_type="als",
                    fitness=fitness,
                    residual=residual,
                    elapsed_seconds=elapsed,
                    cumulative_seconds=cumulative,
                    kernel_seconds=delta.seconds_by_category,
                    flops=delta.flops_by_category,
                )
            )
        if callback is not None:
            callback(sweep_index, [f.copy() for f in provider.factors], fitness)
        if abs(previous_residual - residual) < tol:
            converged = True
            break
        previous_residual = residual

    total_elapsed = time.perf_counter() - run_start
    return residual, converged, sweeps_run, records, total_elapsed


def cp_als(
    tensor: np.ndarray,
    rank: int | None = None,
    n_sweeps: int | None = None,
    tol: float | None = None,
    mttkrp: str | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    seed: int | np.random.Generator | None = None,
    tracker: CostTracker | None = None,
    record_sweeps: bool = True,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
    max_cache_bytes: int | None = None,
    dtype: np.dtype | str | None = None,
    options: ALSOptions | None = None,
) -> ALSResult:
    """CP decomposition via alternating least squares (Algorithm 1).

    Parameters
    ----------
    tensor:
        Input tensor of order >= 2: a dense ndarray or a sparse
        :class:`repro.sparse.CooTensor` (the MTTKRP engine dispatches on the
        backend; everything else of the sweep is factor-sized dense algebra).
    rank:
        CP rank ``R``.
    n_sweeps:
        Maximum number of ALS sweeps (default 50).
    tol:
        Stopping criterion ``Delta``: the run stops when the relative residual
        changes by less than ``tol`` between consecutive sweeps (default 1e-5).
    mttkrp:
        MTTKRP engine: ``"naive"``, ``"unfolding"``, ``"dt"`` (standard
        dimension tree, the default) or ``"msdt"`` (multi-sweep dimension
        tree).  All engines produce identical iterates; they differ only in
        cost.  The same names work on sparse inputs — the trees then amortize
        over CSF-style semi-sparse intermediates (:mod:`repro.trees.sparse_dt`)
        instead of dense TTM chains.
    initial_factors:
        Optional explicit initial factor matrices (otherwise uniform random as
        in the paper).
    tracker:
        Optional :class:`~repro.machine.cost_tracker.CostTracker`; a fresh one
        is created when omitted and returned in the result.
    record_sweeps:
        When True (default) a :class:`~repro.core.results.SweepRecord` is kept
        per sweep (fitness history, kernel breakdown).
    callback:
        Optional ``callback(sweep_index, factors, fitness)`` invoked after
        every sweep.  An exception raised by the callback aborts the run and
        propagates — :mod:`repro.service` uses this for job cancellation.
    dtype:
        Working floating dtype.  ``None`` (default) normalizes the tensor and
        factors to float64; pass e.g. ``np.float32`` to run the whole
        decomposition in single precision.
    options:
        An :class:`~repro.core.options.ALSOptions` bundle carrying ``rank``,
        ``n_sweeps``, ``tol``, ``mttkrp`` and ``seed`` as one object.  Passing
        the bundle *and* any of those keywords emits a ``DeprecationWarning``
        (the explicit keywords override).  Both spellings produce bit-identical
        results.

    Returns
    -------
    :class:`~repro.core.results.ALSResult`
    """
    opts = resolve_options(
        ALSOptions, options,
        {"rank": rank, "n_sweeps": n_sweeps, "tol": tol,
         "mttkrp": mttkrp, "seed": seed},
    )
    rank, n_sweeps, tol, mttkrp, seed = (
        opts.rank, opts.n_sweeps, opts.tol, opts.mttkrp, opts.seed,
    )
    tracker = tracker if tracker is not None else CostTracker()
    tensor, factors, norm_t = prepare_als_inputs(
        tensor, rank, min_order=2, dtype=dtype,
        initial_factors=initial_factors, seed=seed,
    )

    provider = make_provider(mttkrp, tensor, factors, tracker=tracker,
                             max_cache_bytes=max_cache_bytes)
    grams = [gram_matrix(f, tracker=tracker) for f in provider.factors]

    residual, converged, sweeps_run, records, total_elapsed = run_als_loop(
        provider, grams, norm_t, make_update_rule("least_squares"),
        n_sweeps, tol, tracker,
        record_sweeps=record_sweeps, callback=callback,
    )

    return ALSResult(
        factors=[f.copy() for f in provider.factors],
        fitness=ResultBase.fitness_from_residual(residual),
        residual=residual,
        n_sweeps=sweeps_run,
        converged=converged,
        sweeps=records,
        tracker=tracker,
        elapsed_seconds=total_elapsed,
        options={
            "rank": rank,
            "n_sweeps": n_sweeps,
            "tol": tol,
            "mttkrp": mttkrp,
            "dtype": str(tensor.dtype),
        },
    )
