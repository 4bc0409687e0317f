"""Parallel CP-ALS (Algorithm 3 of the paper) on the simulated machine.

The input tensor is block-distributed over an order-``N`` processor grid; each
mode update performs a *local* MTTKRP per processor (with the dimension-tree
or MSDT engine), one Reduce-Scatter within the mode's processor slices, local
solves of the normal equations, an All-Gather of the updated factor rows, and
an All-Reduce of the refreshed Gram matrix — exactly the communication pattern
of Algorithm 3.  Per-sweep modeled times (compute + collectives under the
alpha-beta-gamma-nu model) are recorded for the weak-scaling study (Fig. 3).

Both tensor backends run through the same superstep structure: dense inputs
use the paper's uniform padded blocks, sparse inputs
(:class:`~repro.sparse.CooTensor`) are partitioned by the pluggable
load balancers of :mod:`repro.grid.balance` and each rank's local MTTKRP
dispatches to the sparse engine registry on its own COO/CSF block.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.simulated import SimulatedMachine
from repro.core.options import ParallelOptions, resolve_options
from repro.core.parallel_common import solve_parallel
from repro.core.results import ParallelALSResult
from repro.distributed.dist_tensor import DistributedTensor
from repro.distributed.sparse import DistSparseTensor
from repro.grid.processor_grid import ProcessorGrid
from repro.machine.params import MachineParams

__all__ = ["parallel_cp_als"]


def parallel_cp_als(
    tensor: np.ndarray | DistributedTensor | DistSparseTensor,
    rank: int | None = None,
    grid: ProcessorGrid | Sequence[int] | None = None,
    n_sweeps: int | None = None,
    tol: float | None = None,
    mttkrp: str | None = None,
    machine: SimulatedMachine | None = None,
    params: MachineParams | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    seed: int | np.random.Generator | None = None,
    distributed_solve: bool | None = None,
    record_sweeps: bool = True,
    max_cache_bytes: int | None = None,
    partitioner: str | None = None,
    partition_seed: int | np.random.Generator | None = None,
    update: str | None = None,
    execution: str | None = None,
    collectives: str | None = None,
    options: ParallelOptions | None = None,
) -> ParallelALSResult:
    """Distributed-memory CP-ALS (Algorithm 3) executed on the simulated machine.

    Parameters
    ----------
    tensor:
        Dense tensor, sparse :class:`~repro.sparse.CooTensor`, or an
        already-distributed :class:`DistributedTensor` /
        :class:`~repro.distributed.sparse.DistSparseTensor`.
    grid:
        Processor grid (``ProcessorGrid`` or a dimension tuple such as
        ``(2, 2, 4)``); its order must equal the tensor order.
    mttkrp:
        Engine used for the *local* MTTKRPs (``"dt"``, ``"msdt"``, ``"naive"``).
        On sparse inputs the same names dispatch to the sparse registry
        (CSF-based semi-sparse dimension trees / COO recompute) per block.
    partitioner / partition_seed:
        How sparse inputs are split over the grid — a name accepted by
        :func:`repro.grid.balance.make_partition` (default ``"nnz-balanced"``);
        ignored for dense and pre-distributed inputs.
    distributed_solve:
        ``True`` models the paper's distributed SPD solves, ``False`` the
        PLANC-style redundant sequential solve (used as the PLANC baseline in
        the Figure 3 benchmarks).
    update:
        Per-mode update rule applied to each rank's reduce-scattered chunk:
        ``"least_squares"`` (default, Algorithm 3 exactly), ``"hals"`` or
        ``"multiplicative"`` for parallel nonnegative CP.  Every rule is
        row-separable, so the communication pattern — Reduce-Scatter, local
        chunk update, All-Gather, Gram All-Reduce — is identical, and the
        iterates match the sequential driver running the same rule.
    machine / params:
        The machine (or its cost parameters) to run on; a fresh machine with
        KNL-like parameters is created when omitted.  Passing a
        :class:`~repro.comm.procs.ProcessMachine` runs the per-rank kernels
        in real worker processes (the machine is then *not* closed here, so
        it can be reused across runs).
    execution:
        Substrate for an auto-created machine: ``"simulated"`` (default,
        bit-identical logical ranks) or ``"process"`` (spawned workers with
        shared-memory factor panels; created, used and torn down within this
        call).  Ignored when ``machine=`` is given.
    collectives:
        ``"master"`` (default — master-driven reductions, bit-identical to
        simulated execution) or ``"worker"`` (process execution only: workers
        sum the MTTKRP panels among themselves through shared memory; matches
        the single-rank result at 1e-10 and is deterministic run to run).
    options:
        A :class:`~repro.core.options.ParallelOptions` bundle carrying
        ``rank``, ``grid``, ``n_sweeps``, ``tol``, ``mttkrp``, ``seed``,
        ``distributed_solve`` and ``partitioner`` as one object; mutually
        exclusive with the matching legacy keywords (``DeprecationWarning``
        when both are given, the keywords override).

    Returns
    -------
    :class:`~repro.core.results.ParallelALSResult` with per-sweep fitness,
    measured local kernel breakdowns and modeled parallel times.
    """
    if grid is None and options is None:
        raise TypeError("grid is required (pass grid= or an options= bundle)")
    opts = resolve_options(
        ParallelOptions, options,
        {"rank": rank, "n_sweeps": n_sweeps, "tol": tol, "mttkrp": mttkrp,
         "seed": seed, "distributed_solve": distributed_solve,
         "partitioner": partitioner, "update": update,
         "execution": execution, "collectives": collectives,
         "grid": None if grid is None else tuple(getattr(grid, "dims", grid))},
    )
    # keep an explicitly-passed ProcessorGrid instance as-is; the bundle only
    # carries its dims
    return solve_parallel(
        tensor, grid if grid is not None else opts.grid, opts,
        record_sweeps=record_sweeps, machine=machine, params=params,
        initial_factors=initial_factors, max_cache_bytes=max_cache_bytes,
        partition_seed=partition_seed,
    )
