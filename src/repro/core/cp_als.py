"""Sequential CP-ALS (Algorithm 1 of the paper) with pluggable MTTKRP engines."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.initialization import prepare_als_inputs
from repro.core.loop import SequentialRun, run_sweeps
from repro.core.options import ALSOptions, check_options
from repro.core.results import ALSResult
from repro.core.updates import make_update_rule
from repro.machine.cost_tracker import CostTracker

__all__ = ["cp_als"]


def cp_als(
    tensor: np.ndarray,
    options: ALSOptions,
    *,
    initial_factors: Sequence[np.ndarray] | None = None,
    tracker: CostTracker | None = None,
    record_sweeps: bool = True,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
    max_cache_bytes: int | None = None,
    dtype: np.dtype | str | None = None,
) -> ALSResult:
    """CP decomposition via alternating least squares (Algorithm 1).

    Parameters
    ----------
    tensor:
        Input tensor of order >= 2: a dense ndarray or a sparse
        :class:`repro.sparse.CooTensor` (the MTTKRP engine dispatches on the
        backend; everything else of the sweep is factor-sized dense algebra).
    options:
        The run's settings, an :class:`~repro.core.options.ALSOptions`:
        rank, sweep bound, stop tolerance, MTTKRP engine and seed.  All
        engines produce identical iterates; they differ only in cost.
    initial_factors:
        Optional explicit initial factor matrices (otherwise uniform random as
        in the paper, drawn from ``options.seed``).
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
    max_cache_bytes:
        Optional bound on the engine's intermediate cache.
    dtype:
        Working floating dtype.  ``None`` (default) normalizes the tensor and
        factors to float64; pass e.g. ``np.float32`` to run the whole
        decomposition in single precision.

    Returns
    -------
    :class:`~repro.core.results.ALSResult`
    """
    opts = check_options(options, ALSOptions)
    tracker = tracker if tracker is not None else CostTracker()
    tensor, factors, norm_t = prepare_als_inputs(
        tensor, opts.rank, min_order=2, dtype=dtype,
        initial_factors=initial_factors, seed=opts.seed,
    )

    run = SequentialRun.build(opts.mttkrp, tensor, factors, norm_t, tracker,
                              make_update_rule("least_squares"), max_cache_bytes)
    outcome = run_sweeps(run, n_sweeps=opts.n_sweeps, tol=opts.tol,
                         record_sweeps=record_sweeps, callback=callback)

    return ALSResult(
        factors=run.factors(),
        tracker=tracker,
        options={
            "rank": opts.rank,
            "n_sweeps": opts.n_sweeps,
            "tol": opts.tol,
            "mttkrp": opts.mttkrp,
            "dtype": str(tensor.dtype),
        },
        **outcome.result_fields(),
    )
