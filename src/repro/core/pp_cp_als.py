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
driver; the sweeps are :class:`~repro.core.loop.SequentialRun`'s, and the
body is :func:`~repro.core.loop.solve_sequential`, shared with the other
sequential drivers.

Every phase is recorded as sweep records of type ``"als"``, ``"pp-init"`` or
``"pp-approx"`` — the statistics behind Tables III and IV and Figures 4/5.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.loop import solve_sequential
from repro.core.options import PPOptions
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
    too — and each PP initialization then builds its operators as descents
    off that same provider cache
    (:meth:`repro.trees.pp_operators.PairwiseOperators.build`), keeping the
    pair operators in fiber form (:mod:`repro.trees.sparse_pp`) for the
    approximated sweeps' first-order corrections.
    """
    # PP approximates the MTTKRP, not the update: the default rule is exact
    # least squares, keeping each exact sweep's start residual
    return solve_sequential(
        tensor, options, PPOptions,
        initial_factors=initial_factors, tracker=tracker, record_sweeps=record_sweeps,
        callback=callback, max_cache_bytes=max_cache_bytes, dtype=dtype,
    )
