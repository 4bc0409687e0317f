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

from typing import Callable, Sequence

import numpy as np

from repro.comm.simulated import SimulatedMachine
from repro.core.options import ParallelOptions, check_options
from repro.core.parallel_common import solve_parallel
from repro.core.results import ParallelALSResult
from repro.distributed.dist_tensor import DistributedTensor
from repro.distributed.sparse import DistSparseTensor
from repro.machine.params import MachineParams

__all__ = ["parallel_cp_als"]


def parallel_cp_als(
    tensor: np.ndarray | DistributedTensor | DistSparseTensor,
    options: ParallelOptions,
    *,
    machine: SimulatedMachine | None = None,
    params: MachineParams | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    record_sweeps: bool = True,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
    max_cache_bytes: int | None = None,
) -> ParallelALSResult:
    """Distributed-memory CP-ALS (Algorithm 3) executed on the simulated machine.

    Parameters
    ----------
    tensor:
        Dense tensor, sparse :class:`~repro.sparse.CooTensor`, or an
        already-distributed :class:`DistributedTensor` /
        :class:`~repro.distributed.sparse.DistSparseTensor`.
    options:
        A :class:`~repro.core.options.ParallelOptions` bundle: the settings of
        :func:`~repro.core.cp_als.cp_als` plus the processor grid, the solve
        model, the sparse partitioner, the update rule and the execution
        substrate.  ``mttkrp`` names the engine of the *local* MTTKRPs; on
        sparse inputs the same names dispatch to the sparse registry per
        block.
    machine / params:
        The machine (or its cost parameters) to run on; a fresh machine with
        KNL-like parameters, of the bundle's ``execution`` substrate, is
        created when omitted.  Passing a
        :class:`~repro.comm.procs.ProcessMachine` runs the per-rank kernels
        in real worker processes (the machine is then *not* closed here, so
        it can be reused across runs).
    initial_factors, record_sweeps, callback, max_cache_bytes:
        As in :func:`~repro.core.cp_als.cp_als`; the callback's factors are
        the gathered global ones.

    Returns
    -------
    :class:`~repro.core.results.ParallelALSResult` with per-sweep fitness,
    measured local kernel breakdowns and modeled parallel times.
    """
    return solve_parallel(
        tensor, check_options(options, ParallelOptions),
        record_sweeps=record_sweeps, callback=callback, machine=machine, params=params,
        initial_factors=initial_factors, max_cache_bytes=max_cache_bytes,
    )
