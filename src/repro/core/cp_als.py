"""Sequential CP-ALS (Algorithm 1 of the paper) with pluggable MTTKRP engines."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.initialization import prepare_als_inputs
from repro.core.loop import SequentialRun, run_sweeps
from repro.core.options import ALSOptions, resolve_options
from repro.core.results import ALSResult
from repro.core.updates import make_update_rule
from repro.machine.cost_tracker import CostTracker

__all__ = ["cp_als"]


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

    run = SequentialRun.build(mttkrp, tensor, factors, norm_t, tracker,
                              make_update_rule("least_squares"), max_cache_bytes)
    outcome = run_sweeps(run, n_sweeps=n_sweeps, tol=tol,
                         record_sweeps=record_sweeps, callback=callback)

    return ALSResult(
        factors=run.factors(),
        tracker=tracker,
        options={
            "rank": rank,
            "n_sweeps": n_sweeps,
            "tol": tol,
            "mttkrp": mttkrp,
            "dtype": str(tensor.dtype),
        },
        **outcome.result_fields(),
    )
