"""Sparse weak scaling over the processor grid with nnz-aware load balancing.

The sparse extension of the Figure-3 studies: fixed *nonzeros per processor*
instead of fixed dense block volume, skewed power-law inputs, and the
pluggable partitioners of :mod:`repro.grid.balance`.  Three artifacts:

* partitioner comparison — per-rank nnz imbalance of the uniform,
  nnz-balanced and joint partitions on a skewed Poisson tensor (the uniform
  padded baseline exceeds 3x while nnz-balanced stays under 1.5x),
* executed sparse weak scaling — Algorithm 3 on the simulated machine with
  per-rank COO/CSF blocks and the sparse engine registry,
* modeled sparse weak scaling at paper-style scale, where payloads follow
  local nnz and R (:func:`repro.costs.sweep_model.sparse_sweep_time_model`).

Set ``REPRO_BENCH_TINY=1`` to shrink shapes (the CI bench smoke job does
this); the imbalance assertions hold at either size.
"""

from __future__ import annotations

from conftest import BENCH_TINY

from repro.data.sparse_synthetic import sparse_skewed_count_tensor
from repro.experiments.reporting import format_table
from repro.experiments.weak_scaling import (
    executed_sparse_weak_scaling,
    measured_multiprocess_sweep,
    modeled_sparse_weak_scaling,
)
from repro.grid import ProcessorGrid, available_partitioners, make_partition
from repro.machine.params import MachineParams

_SHAPE = (40, 40, 40) if BENCH_TINY else (200, 200, 200)
_DENSITY = 0.01
_ALPHA = 1.1
_GRID = (2, 2, 2)


def test_partitioner_imbalance(benchmark, report):
    tensor = sparse_skewed_count_tensor(_SHAPE, _DENSITY, alpha=_ALPHA, seed=0)
    grid = ProcessorGrid(_GRID)

    def _reports():
        return {
            kind: make_partition(kind, tensor, grid).report(tensor)
            for kind in available_partitioners()
        }

    reports = benchmark(_reports)
    rows = [
        [kind, rep.total_nnz, int(rep.per_rank_nnz.max()),
         f"{rep.imbalance:.2f}", rep.empty_ranks,
         "x".join(str(e) for e in rep.padded_extents)]
        for kind, rep in reports.items()
    ]
    text = format_table(
        ["partitioner", "nnz", "max rank nnz", "imbalance", "empty ranks", "padded extents"],
        rows,
        title=(f"Sparse partitioners on skewed Poisson {_SHAPE} "
               f"(alpha={_ALPHA}, grid={'x'.join(map(str, _GRID))})"),
    )
    report("sparse_partitioner_imbalance", text)
    assert reports["uniform"].imbalance > 3.0
    assert reports["nnz-balanced"].imbalance <= 1.5
    assert reports["nnz-balanced"].imbalance <= reports["uniform"].imbalance
    # the joint (cross-mode) partitioner is never worse than the marginal cut
    assert reports["joint"].imbalance <= reports["nnz-balanced"].imbalance


def test_joint_partitioner_4x4x4(benchmark, report):
    """The joint partitioner on the skewed 4x4x4 grid, where marginal cuts
    degrade: 64 ranks see the cross-mode correlation the per-mode histograms
    hide, and the joint refinement must stay at or below nnz-balanced."""
    tensor = sparse_skewed_count_tensor(_SHAPE, _DENSITY, alpha=_ALPHA, seed=0)
    grid = ProcessorGrid((4, 4, 4))

    def _reports():
        return {
            kind: make_partition(kind, tensor, grid).report(tensor)
            for kind in ("nnz-balanced", "joint")
        }

    reports = benchmark(_reports)
    text = format_table(
        ["partitioner", "max rank nnz", "imbalance", "empty ranks"],
        [[kind, int(rep.per_rank_nnz.max()), f"{rep.imbalance:.3f}",
          rep.empty_ranks] for kind, rep in reports.items()],
        title=f"Joint vs marginal partitioning on skewed Poisson {_SHAPE}, grid 4x4x4",
    )
    report("sparse_partitioner_joint_4x4x4", text)
    assert reports["joint"].partitioner == "joint"
    assert reports["joint"].imbalance <= reports["nnz-balanced"].imbalance


def test_multiprocess_measured_vs_modeled(benchmark, report):
    """One real P=4 multi-process sparse sweep (spawned workers, shared-memory
    panels) against the sparse sweep-time model at the partition's measured
    imbalance.  The ratio is reported, not asserted — wall-clock on shared CI
    runners is informational only."""
    nnz_local = 500 if BENCH_TINY else 4000
    s_local = 10 if BENCH_TINY else 24
    mp_rank = 4 if BENCH_TINY else 8
    out = benchmark.pedantic(
        measured_multiprocess_sweep,
        args=(nnz_local, s_local, mp_rank, (1, 2, 2)),
        kwargs={"n_sweeps": 3, "seed": 0, "alpha": _ALPHA, "partitioner": "joint"},
        rounds=1, iterations=1,
    )
    text = format_table(
        ["metric", "value"],
        [[k, v] for k, v in out.items()],
        title="Measured multi-process sweep vs sparse sweep model (P=4)",
    )
    report("sparse_multiprocess_measured_vs_modeled", text)
    assert out["n_procs"] == 4
    assert out["measured_per_sweep_seconds"] > 0.0
    assert out["modeled_per_sweep_seconds"] > 0.0


def test_executed_sparse_weak_scaling(benchmark, report):
    grids = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    nnz_local = 500 if BENCH_TINY else 4000
    s_local = 10 if BENCH_TINY else 24
    points = benchmark.pedantic(
        executed_sparse_weak_scaling,
        args=(3, nnz_local, s_local, 8, grids),
        kwargs={"n_sweeps": 2, "seed": 0, "alpha": _ALPHA,
                "params": MachineParams.container_like()},
        rounds=1, iterations=1,
    )
    methods = ("sparse-naive", "sparse-dt", "sparse-msdt")
    by_grid: dict[tuple, dict] = {}
    for p in points:
        by_grid.setdefault(tuple(p.grid), {})[p.method] = p.per_sweep_seconds
    rows = [["x".join(str(d) for d in grid)] + [per.get(m, float("nan")) for m in methods]
            for grid, per in by_grid.items()]
    text = format_table(
        ["grid"] + list(methods), rows,
        title=(f"Executed sparse weak scaling (nnz/proc={nnz_local}, "
               f"s_local={s_local}, R=8, nnz-balanced) — modeled per-sweep seconds"),
    )
    report("sparse_weak_scaling_executed", text)
    assert len(points) == len(grids) * len(methods)


def test_modeled_sparse_weak_scaling(benchmark, report):
    grids = [(1, 1, 1), (2, 2, 2), (4, 4, 4), (8, 8, 8)]
    points = benchmark(
        modeled_sparse_weak_scaling, 3, 1_000_000, 400, 64, grids,
        ("naive", "dt", "msdt"), 1.5,
    )
    methods = ("sparse-naive", "sparse-dt", "sparse-msdt")
    by = {(p.grid, p.method): p.per_sweep_seconds for p in points}
    rows = [["x".join(str(d) for d in grid)] + [by[(grid, m)] for m in methods]
            for grid in grids]
    text = format_table(
        ["grid"] + list(methods), rows,
        title="Modeled sparse weak scaling (nnz/proc=1e6, R=64, imbalance=1.5)",
    )
    report("sparse_weak_scaling_modeled", text)
    # the trees amortize the recompute engine at every scale
    for grid in grids:
        assert by[(tuple(grid), "sparse-dt")] < by[(tuple(grid), "sparse-naive")]
        assert by[(tuple(grid), "sparse-msdt")] < by[(tuple(grid), "sparse-naive")]
