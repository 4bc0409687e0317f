"""Distributed sparse CP-ALS end to end: partitioners, reports, scaling.

Builds a skewed sparse tensor (power-law per-mode marginals — the shape of
real interaction data), compares every partitioner of ``repro.grid.balance``
on it (uniform padded blocks leave most ranks idle; the nnz-balanced
boundaries fix that), then runs the simulated-SPMD sparse CP-ALS sweep of
``parallel_cp_als`` on the distributed tensor and prints the per-sweep
modeled times next to the single-rank baseline.

Run with ``python examples/sparse_parallel_scaling.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.options import ParallelOptions
from repro.core.parallel_cp_als import parallel_cp_als
from repro.data.sparse_synthetic import sparse_skewed_count_tensor
from repro.distributed import DistSparseTensor
from repro.experiments.reporting import format_table
from repro.grid import ProcessorGrid, available_partitioners
from repro.machine.params import MachineParams

SHAPE = (120, 120, 120)
DENSITY = 0.01
ALPHA = 1.1
GRID = (2, 2, 2)
RANK = 8


def main() -> None:
    tensor = sparse_skewed_count_tensor(SHAPE, DENSITY, alpha=ALPHA, seed=0)
    grid = ProcessorGrid(GRID)
    print(f"{tensor}\n")

    # 1. how does each partitioner spread the nonzeros over the grid?
    reports = {}
    for kind in available_partitioners():
        dist = DistSparseTensor.from_coo(tensor, grid, kind)
        reports[kind] = dist.report()
        print(reports[kind].summary())
        print()
    assert reports["nnz-balanced"].imbalance <= reports["uniform"].imbalance

    # 2. the distributed sweep: local CSF dimension trees per rank, exact
    #    collectives, alpha-beta-gamma-nu per-sweep times
    params = MachineParams.container_like()
    rows = []
    for kind in ("uniform", "nnz-balanced"):
        for engine in ("naive", "msdt"):
            result = parallel_cp_als(tensor,
                                     ParallelOptions(rank=RANK, grid=grid, n_sweeps=3,
                                                     tol=0.0, mttkrp=engine, seed=2,
                                                     partitioner=kind),
                                     params=params)
            rows.append([
                kind, engine,
                f"{reports[kind].imbalance:.2f}x",
                float(np.mean(result.per_sweep_modeled_seconds)),
                result.fitness,
            ])
    single = parallel_cp_als(tensor,
                             ParallelOptions(rank=RANK, grid=(1, 1, 1), n_sweeps=3,
                                             tol=0.0, mttkrp="msdt", seed=2),
                             params=params)
    rows.append(["(single rank)", "msdt", "1.00x",
                 float(np.mean(single.per_sweep_modeled_seconds)),
                 single.fitness])
    print(format_table(
        ["partitioner", "engine", "nnz imbalance", "per-sweep seconds", "fitness"],
        rows,
        title=f"Distributed sparse CP-ALS on {'x'.join(map(str, GRID))} "
              f"(R={RANK}, modeled)",
    ))

    # the collectives move the actual data, so every configuration reaches the
    # same fitness as the single-rank run (to rounding)
    assert all(abs(r[-1] - single.fitness) < 1e-8 for r in rows)


if __name__ == "__main__":
    main()
