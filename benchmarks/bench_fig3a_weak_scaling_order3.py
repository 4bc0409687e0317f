"""Figure 3a — weak scaling of per-sweep time, order-3 tensors.

Paper setting: local tensor 400^3 per processor, R = 400, grids 1x1x1 up to
8x8x16 (1024 processors), methods PLANC / DT / MSDT / PP-init / PP-approx.

This benchmark produces (i) the modeled curve at the paper's scale for the full
grid list and (ii) an executed weak-scaling run on the simulated machine at
container scale (s_local = 14, R = 16, grids up to 8 ranks) whose local kernels
really run and whose communication is charged by the cost model.  Both report
modeled seconds; the wall-clock version of the MSDT-over-DT claim is the
harness's ``msdt_sweep_s`` against ``dt_sweep_s`` (``BENCHMARK.json``).
"""

from __future__ import annotations

from repro.experiments.reporting import format_table
from repro.experiments.weak_scaling import (
    PAPER_GRIDS_ORDER3,
    executed_weak_scaling,
    modeled_weak_scaling,
)
from repro.machine.params import MachineParams

_METHODS = ("planc", "dt", "msdt", "pp-init", "pp-approx")


def _points_to_rows(points):
    by_grid: dict[tuple, dict] = {}
    for p in points:
        by_grid.setdefault(p.grid, {})[p.method] = p.per_sweep_seconds
    rows = []
    for grid, per_method in by_grid.items():
        rows.append(["x".join(str(d) for d in grid)]
                    + [per_method.get(m, float("nan")) for m in _METHODS])
    return rows


def test_fig3a_modeled_paper_scale(benchmark, report):
    points = benchmark(modeled_weak_scaling, 3, 400, 400, PAPER_GRIDS_ORDER3, _METHODS)
    rows = _points_to_rows(points)
    text = format_table(["grid"] + list(_METHODS), rows,
                        title="Figure 3a (modeled, s_local=400, R=400) — per-sweep seconds")
    report("fig3a_weak_scaling_order3_modeled", text)
    by = {(p.grid, p.method): p.per_sweep_seconds for p in points}
    largest = PAPER_GRIDS_ORDER3[-1]
    assert by[(largest, "msdt")] < by[(largest, "dt")]
    assert by[(largest, "pp-approx")] < by[(largest, "dt")]


def test_fig3a_executed_container_scale(benchmark, report):
    grids = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    points = benchmark.pedantic(
        executed_weak_scaling,
        args=(3, 14, 16, grids),
        kwargs={"n_sweeps": 2, "seed": 0, "params": MachineParams.container_like()},
        rounds=1, iterations=1,
    )
    rows = _points_to_rows(points)
    text = format_table(["grid"] + list(_METHODS), rows,
                        title="Figure 3a (executed, s_local=14, R=16) — modeled per-sweep seconds")
    report("fig3a_weak_scaling_order3_executed", text)
    by = {(tuple(p.grid), p.method): p.per_sweep_seconds for p in points}
    assert by[((2, 2, 2), "msdt")] <= by[((2, 2, 2), "dt")] * 1.05
