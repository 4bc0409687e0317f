"""Communication-efficient parallel pairwise perturbation (Algorithm 4).

This is the second contribution of the paper: both PP steps are reorganized so
that all tensor-sized work happens on the *local* tensor blocks.

* **PP initialization** — every processor builds the pairwise operators
  ``M_p^(i,j)`` from its own tensor block and its slice-local factor blocks
  (no communication at all; the reference implementation of [21] instead runs
  distributed matrix multiplications, whose much larger communication volume
  is what Table II measures).
* **PP approximated sweeps** — the first-order corrections ``U^(n,i)`` are
  also local; one Reduce-Scatter per mode update combines them (Algorithm 4
  line 9), the second-order correction ``V^(n)`` only involves replicated
  ``R x R`` matrices, and the solve / All-Gather / All-Reduce sequence of
  Algorithm 3 finishes the update.

The regular (exact) sweeps between PP phases reuse Algorithm 3 with the MSDT
local engine, as the paper's implementation does.  Both kinds of sweep are
:class:`~repro.core.parallel_common.ParallelRun` methods driven by the one
sweep loop, :func:`repro.core.loop.run_sweeps`, so the phase rule, the stop
rule and the divergence rollback are those of the sequential driver.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.comm.simulated import SimulatedMachine
from repro.core.options import ParallelPPOptions, check_options
from repro.core.parallel_common import solve_parallel
from repro.core.results import ParallelALSResult
from repro.distributed.dist_tensor import DistributedTensor
from repro.machine.params import MachineParams

__all__ = ["parallel_pp_cp_als"]


def parallel_pp_cp_als(
    tensor: np.ndarray | DistributedTensor,
    options: ParallelPPOptions,
    *,
    machine: SimulatedMachine | None = None,
    params: MachineParams | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
) -> ParallelALSResult:
    """Parallel PP-CP-ALS (Algorithm 4) on the simulated machine.

    ``options`` is a :class:`~repro.core.options.ParallelPPOptions`: the
    settings of :func:`repro.core.parallel_cp_als.parallel_cp_als` plus the PP
    fields of :func:`repro.core.pp_cp_als.pp_cp_als`.  The other arguments
    (including sparse :class:`~repro.sparse.CooTensor` inputs) are those of
    :func:`~repro.core.parallel_cp_als.parallel_cp_als`.
    """
    opts = check_options(options, ParallelPPOptions)
    if opts.update != "least_squares":
        # the PP corrections linearize the *least-squares* update around the
        # checkpoint; other rules have no perturbative expansion here
        raise NotImplementedError(
            "parallel_pp_cp_als supports only the least_squares update rule; "
            "use parallel_cp_als with ParallelOptions(update=...) for parallel "
            "nonnegative CP"
        )
    return solve_parallel(
        tensor, opts, pp=(opts.pp_tol, opts.max_pp_sweeps_per_phase),
        callback=callback, machine=machine, params=params,
        initial_factors=initial_factors,
    )
