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
The loop is :func:`repro.core.loop.run_sweeps`, shared with every other
driver; the sweeps are :class:`~repro.core.loop.SequentialRun`'s.

Every phase is recorded as sweep records of type ``"als"``, ``"pp-init"`` or
``"pp-approx"`` — the statistics behind Tables III and IV and Figures 4/5.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.initialization import prepare_als_inputs
from repro.core.loop import SequentialRun, run_sweeps
from repro.core.options import PPOptions, check_options
from repro.core.results import ALSResult
from repro.machine.cost_tracker import CostTracker

__all__ = ["pp_cp_als"]


def pp_cp_als(
    tensor: np.ndarray,
    options: PPOptions,
    *,
    initial_factors: Sequence[np.ndarray] | None = None,
    tracker: CostTracker | None = None,
    record_sweeps: bool = True,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
    max_cache_bytes: int | None = None,
    dtype: np.dtype | str | None = None,
) -> ALSResult:
    """CP decomposition via pairwise-perturbation ALS (Algorithm 2).

    ``options`` is a :class:`~repro.core.options.PPOptions`; the other
    arguments are those of :func:`repro.core.cp_als.cp_als` (the tensor may be
    a dense ndarray or a sparse :class:`repro.sparse.CooTensor`).  On sparse
    inputs the default ``mttkrp="msdt"`` resolves to the CSF-based semi-sparse
    MSDT (:mod:`repro.trees.sparse_dt`), so the exact sweeps amortize there
    too — and each PP initialization then builds its operators as semi-sparse
    descents off that same provider cache (:mod:`repro.trees.sparse_pp`),
    keeping the pair operators in fiber form for the approximated sweeps'
    first-order corrections.
    """
    opts = check_options(options, PPOptions)
    tracker = tracker if tracker is not None else CostTracker()
    tensor, factors, norm_t = prepare_als_inputs(
        tensor, opts.rank, min_order=3, dtype=dtype,
        initial_factors=initial_factors, seed=opts.seed,
    )

    # PP approximates the MTTKRP, not the update: the default rule is exact
    # least squares, keeping each exact sweep's start residual
    run = SequentialRun.build(opts.mttkrp, tensor, factors, norm_t, tracker,
                              max_cache_bytes=max_cache_bytes)
    outcome = run_sweeps(run, n_sweeps=opts.n_sweeps, tol=opts.tol,
                         pp=(opts.pp_tol, opts.max_pp_sweeps_per_phase),
                         record_sweeps=record_sweeps, callback=callback)

    return ALSResult(
        factors=run.factors(),
        tracker=tracker,
        options={
            "rank": opts.rank,
            "n_sweeps": opts.n_sweeps,
            "tol": opts.tol,
            "pp_tol": opts.pp_tol,
            "mttkrp": opts.mttkrp,
            "dtype": str(tensor.dtype),
        },
        **outcome.result_fields(),
    )
