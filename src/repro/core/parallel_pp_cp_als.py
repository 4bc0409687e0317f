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

from typing import Sequence

import numpy as np

from repro.comm.simulated import SimulatedMachine
from repro.core.options import ParallelPPOptions, resolve_options
from repro.core.parallel_common import solve_parallel
from repro.core.results import ParallelALSResult
from repro.distributed.dist_tensor import DistributedTensor
from repro.grid.processor_grid import ProcessorGrid
from repro.machine.params import MachineParams

__all__ = ["parallel_pp_cp_als"]


def parallel_pp_cp_als(
    tensor: np.ndarray | DistributedTensor,
    rank: int | None = None,
    grid: ProcessorGrid | Sequence[int] | None = None,
    n_sweeps: int | None = None,
    tol: float | None = None,
    pp_tol: float | None = None,
    mttkrp: str | None = None,
    machine: SimulatedMachine | None = None,
    params: MachineParams | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    seed: int | np.random.Generator | None = None,
    distributed_solve: bool | None = None,
    record_sweeps: bool = True,
    max_pp_sweeps_per_phase: int | None = None,
    max_cache_bytes: int | None = None,
    partitioner: str | None = None,
    partition_seed: int | np.random.Generator | None = None,
    update: str | None = None,
    execution: str | None = None,
    collectives: str | None = None,
    options: ParallelPPOptions | None = None,
) -> ParallelALSResult:
    """Parallel PP-CP-ALS (Algorithm 4) on the simulated machine.

    Arguments mirror :func:`repro.core.parallel_cp_als.parallel_cp_als`
    (including sparse :class:`~repro.sparse.CooTensor` inputs and the
    ``partitioner`` selection) plus the PP tolerance ``pp_tol`` and the
    per-phase safety bound ``max_pp_sweeps_per_phase`` (see
    :func:`repro.core.pp_cp_als.pp_cp_als`).  The ``options=`` bundle is a
    :class:`~repro.core.options.ParallelPPOptions`, mutually exclusive with
    the matching legacy keywords (``DeprecationWarning`` when both are given,
    the keywords override).
    """
    if grid is None and options is None:
        raise TypeError("grid is required (pass grid= or an options= bundle)")
    opts = resolve_options(
        ParallelPPOptions, options,
        {"rank": rank, "n_sweeps": n_sweeps, "tol": tol, "pp_tol": pp_tol,
         "mttkrp": mttkrp, "seed": seed, "distributed_solve": distributed_solve,
         "partitioner": partitioner, "update": update,
         "execution": execution, "collectives": collectives,
         "max_pp_sweeps_per_phase": max_pp_sweeps_per_phase,
         "grid": None if grid is None else tuple(getattr(grid, "dims", grid))},
    )
    if opts.update != "least_squares":
        # the PP corrections linearize the *least-squares* update around the
        # checkpoint; other rules have no perturbative expansion here
        raise NotImplementedError(
            "parallel_pp_cp_als supports only the least_squares update rule; "
            "use parallel_cp_als(update=...) for parallel nonnegative CP"
        )
    return solve_parallel(
        tensor, grid if grid is not None else opts.grid, opts,
        pp=(opts.pp_tol, opts.max_pp_sweeps_per_phase),
        record_sweeps=record_sweeps, machine=machine, params=params,
        initial_factors=initial_factors, max_cache_bytes=max_cache_bytes,
        partition_seed=partition_seed,
    )
