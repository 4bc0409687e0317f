"""Weak-scaling study of per-sweep time and its breakdown (Figures 3a-3f).

Two modes:

* :func:`modeled_weak_scaling` evaluates the alpha-beta-gamma-nu sweep model
  at the paper's scale (``s_local = 400, R = 400`` for order 3;
  ``s_local = 75, R = 200`` for order 4) for the full list of processor grids
  of Fig. 3a/3b; each point's ``breakdown`` is the modeled per-category split
  of Fig. 3c-f.
* :func:`executed_weak_scaling` actually runs Algorithm 3 / Algorithm 4 on the
  simulated machine for container-sized grids (keeping the local tensor size
  fixed, exactly like the paper's weak scaling), reporting the modeled
  parallel per-sweep time and the counted per-category flops of each sweep
  type.

The paper's grid lists are exposed as :data:`PAPER_GRIDS_ORDER3` and
:data:`PAPER_GRIDS_ORDER4`.

:func:`measured_multiprocess_sweep` closes the loop on the model: it runs a
sparse sweep on a real :class:`~repro.comm.procs.ProcessMachine` (one OS
process per rank) and compares *measured wall-clock* per sweep against the
:func:`~repro.costs.sweep_model.sparse_sweep_time_model` prediction under
container-like machine parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.initialization import init_factors
from repro.core.options import ParallelOptions, ParallelPPOptions
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.costs.sweep_model import MODELED_METHODS, sparse_sweep_time_model, sweep_time_model
from repro.data.lowrank import random_low_rank_tensor
from repro.data.sparse_synthetic import sparse_skewed_count_tensor
from repro.machine.params import MachineParams

__all__ = [
    "WeakScalingPoint",
    "modeled_weak_scaling",
    "executed_weak_scaling",
    "measured_multiprocess_sweep",
    "PAPER_GRIDS_ORDER3",
    "PAPER_GRIDS_ORDER4",
]

#: processor grids of Fig. 3a (order 3)
PAPER_GRIDS_ORDER3: tuple[tuple[int, ...], ...] = (
    (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 4), (2, 4, 4),
    (4, 4, 4), (4, 4, 8), (4, 8, 8), (8, 8, 8), (8, 8, 16),
)

#: processor grids of Fig. 3b (order 4)
PAPER_GRIDS_ORDER4: tuple[tuple[int, ...], ...] = (
    (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2),
    (2, 2, 2, 4), (2, 2, 4, 4), (2, 4, 4, 4), (4, 4, 4, 4), (4, 4, 4, 8),
    (4, 4, 8, 8),
)


@dataclass
class WeakScalingPoint:
    """One (grid, method) point of the weak-scaling study.

    ``breakdown`` holds modeled seconds per kernel category for a ``"model"``
    point and the mean counted flops per category for an ``"executed"`` one.
    """

    grid: tuple[int, ...]
    method: str
    per_sweep_seconds: float
    breakdown: dict = field(default_factory=dict)
    source: str = "model"

    @property
    def n_procs(self) -> int:
        return int(np.prod(self.grid))

    def asdict(self) -> dict:
        return {
            "grid": "x".join(str(d) for d in self.grid),
            "method": self.method,
            "per_sweep_seconds": self.per_sweep_seconds,
            "source": self.source,
        }


def modeled_weak_scaling(
    order: int,
    s_local: int,
    rank: int,
    grids: Sequence[Sequence[int]] | None = None,
    methods: Sequence[str] = MODELED_METHODS,
    params: MachineParams | None = None,
) -> list[WeakScalingPoint]:
    """Per-sweep modeled times for every (grid, method) pair at paper scale."""
    if grids is None:
        if order == 3:
            grids = PAPER_GRIDS_ORDER3
        elif order == 4:
            grids = PAPER_GRIDS_ORDER4
        else:
            raise ValueError("default grids exist only for orders 3 and 4")
    params = params if params is not None else MachineParams.knl_like()
    points = []
    for grid in grids:
        grid = tuple(int(d) for d in grid)
        if len(grid) != order:
            raise ValueError(f"grid {grid} does not match order {order}")
        n_procs = int(np.prod(grid))
        for method in methods:
            breakdown = sweep_time_model(method, s_local, order, rank, n_procs, params)
            points.append(
                WeakScalingPoint(
                    grid=grid,
                    method=method,
                    per_sweep_seconds=breakdown.total_seconds,
                    breakdown=breakdown.category_seconds(),
                    source="model",
                )
            )
    return points


def _sweep_type_means(result, sweep_type: str) -> tuple[float, dict[str, float]]:
    """Mean modeled seconds and mean flops per category of one sweep type."""
    records = [s for s in result.sweeps if s.sweep_type == sweep_type]
    if not records:
        return 0.0, {}
    flops: Counter[str] = Counter()
    for record in records:
        flops.update(record.flops)
    mean_time = float(np.mean([s.modeled_seconds for s in records]))
    return mean_time, {c: total / len(records) for c, total in flops.items()}


def executed_weak_scaling(
    order: int,
    s_local: int,
    rank: int,
    grids: Sequence[Sequence[int]],
    n_sweeps: int = 3,
    seed: int = 0,
    params: MachineParams | None = None,
    methods: Sequence[str] = ("planc", "dt", "msdt", "pp-init", "pp-approx"),
) -> list[WeakScalingPoint]:
    """Actually execute Algorithms 3/4 on the simulated machine (weak scaling).

    The tensor for each grid has global mode sizes ``s_local * grid[i]`` so the
    per-processor block stays ``s_local^order`` — the same weak-scaling setup
    as the paper, at container-friendly sizes.  ``pp-init`` / ``pp-approx``
    points are taken from the corresponding sweep types of a
    :func:`~repro.core.parallel_pp_cp_als.parallel_pp_cp_als` run with a
    permissive PP tolerance so both phases are exercised.  Each point reports
    the mean modeled per-sweep seconds and, as its ``breakdown``, the mean
    counted flops per kernel category (Fig. 3c-f) of its sweep type.

    Every method of a grid starts from the *same* shared initial factors
    (seeded per grid), so the per-method sweeps are compared on identical
    iterates rather than on whatever each driver would seed itself.
    """
    params = params if params is not None else MachineParams.knl_like()
    points: list[WeakScalingPoint] = []
    for grid in grids:
        grid = tuple(int(d) for d in grid)
        if len(grid) != order:
            raise ValueError(f"grid {grid} does not match order {order}")
        shape = tuple(s_local * d for d in grid)
        tensor = random_low_rank_tensor(shape, rank=max(rank // 2, 2), noise=0.05, seed=seed)
        # one shared initialization per grid — matches what the drivers would
        # generate themselves (same seed and method), but materialized here so
        # every method provably starts from identical factors
        initial = init_factors(shape, rank, seed=seed)
        for method in methods:
            if method in ("planc", "dt", "msdt"):
                options = ParallelOptions(
                    rank=rank, grid=grid, n_sweeps=n_sweeps, tol=0.0,
                    mttkrp="dt" if method == "planc" else method, seed=seed,
                    distributed_solve=(method != "planc"),
                )
                result = parallel_cp_als(tensor, options, params=params,
                                         initial_factors=initial)
                sweep_type = "als"
            else:
                options = ParallelPPOptions(
                    rank=rank, grid=grid, n_sweeps=4 * n_sweeps, tol=0.0,
                    pp_tol=0.6, seed=seed,
                )
                result = parallel_pp_cp_als(tensor, options, params=params,
                                            initial_factors=initial)
                sweep_type = "pp-init" if method == "pp-init" else "pp-approx"
            mean_time, breakdown = _sweep_type_means(result, sweep_type)
            points.append(WeakScalingPoint(grid, method, mean_time, breakdown, "executed"))
    return points


def measured_multiprocess_sweep(
    nnz_local: int,
    s_local: int,
    rank: int,
    grid: Sequence[int],
    n_sweeps: int = 4,
    seed: int = 0,
    alpha: float = 1.0,
    partitioner: str = "joint",
    params: MachineParams | None = None,
    method: str = "dt",
) -> dict:
    """Measured multi-process sweep wall-clock vs the sparse sweep model.

    Builds a skewed Poisson tensor
    (:func:`repro.data.sparse_synthetic.sparse_skewed_count_tensor`, power-law
    exponent ``alpha``) with global shape ``s_local * grid[i]`` and a target
    of ``nnz_local`` nonzeros per processor, runs ``parallel_cp_als`` with
    ``execution="process"`` (a real :class:`~repro.comm.procs.ProcessMachine`
    with one spawned worker per rank), and reports the mean *measured*
    per-sweep wall-clock — the first sweep is dropped as warm-up (BLAS/cache
    effects and the workers' first-touch of the shared panels) — next to the
    :func:`~repro.costs.sweep_model.sparse_sweep_time_model` prediction at the
    partition's *actual* measured imbalance, including its process-hop terms
    (``execution="process"``, calibrated through ``params.alpha_hop`` /
    ``params.beta_hop``; see :mod:`repro.machine.calibrate`).  ``params``
    defaults to :meth:`~repro.machine.params.MachineParams.container_like`
    because the comparison is against this container, not the paper's KNL
    nodes.

    The partition is computed once and reused for both the imbalance report
    and the distributed tensor the run executes on.

    Returns a plain dict (ready for benchmark JSON): measured and modeled
    per-sweep seconds, the hop counts, the partition imbalance and the
    workload description.  ``measured_over_modeled`` is only present when the
    modeled time is positive — a zero prediction (e.g. all-free cost
    parameters) would otherwise put a non-finite ratio into JSON reports.
    """
    from repro.distributed.sparse import DistSparseTensor
    from repro.grid.balance import make_partition
    from repro.grid.processor_grid import ProcessorGrid
    from repro.machine.collective_costs import process_hop_cost

    grid = tuple(int(d) for d in grid)
    params = params if params is not None else MachineParams.container_like()
    n_procs = int(np.prod(grid))
    shape = tuple(s_local * d for d in grid)
    size = int(np.prod(shape, dtype=np.int64))
    density = min(1.0, nnz_local * n_procs / size)
    tensor = sparse_skewed_count_tensor(shape, density, alpha=alpha, seed=seed)
    pgrid = ProcessorGrid(grid)
    partition = make_partition(partitioner, tensor, pgrid)
    report = partition.report(tensor)
    dist = DistSparseTensor.from_coo(tensor, pgrid, partitioner=partition)

    options = ParallelOptions(
        rank=rank, grid=pgrid, n_sweeps=n_sweeps, tol=0.0, mttkrp=method,
        seed=seed, execution="process",
    )
    result = parallel_cp_als(dist, options, params=params)
    sweeps = [s for s in result.sweeps if s.sweep_type == "als"]
    timed = sweeps[1:] if len(sweeps) > 1 else sweeps
    measured = float(np.mean([s.elapsed_seconds for s in timed]))

    breakdown = sparse_sweep_time_model(
        method, max(tensor.nnz // n_procs, 1), shape, rank, grid,
        imbalance=report.imbalance, params=params,
        execution="process",
    )
    modeled = breakdown.total_seconds
    hop_messages, hop_words = process_hop_cost(shape, grid, rank)
    point = {
        "grid": "x".join(str(d) for d in grid),
        "n_procs": n_procs,
        "method": method,
        "partitioner": report.partitioner,
        "imbalance": float(report.imbalance),
        "nnz": int(tensor.nnz),
        "rank": int(rank),
        "n_timed_sweeps": len(timed),
        "measured_per_sweep_seconds": measured,
        "modeled_per_sweep_seconds": float(modeled),
        "base_modeled_per_sweep_seconds": float(modeled - breakdown.hop_seconds),
        "hop_messages": float(hop_messages),
        "hop_words": float(hop_words),
    }
    if modeled > 0:
        point["measured_over_modeled"] = float(measured / modeled)
    return point
