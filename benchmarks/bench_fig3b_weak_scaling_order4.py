"""Figure 3b — weak scaling of per-sweep time, order-4 tensors.

Paper setting: local tensor 75^4 per processor, R = 200, grids 1x1x1x1 up to
4x4x8x8 (1024 processors).  The modeled curve is evaluated at the paper's
scale and an executed run on the simulated machine at container scale; both
report modeled seconds.  The wall-clock version of the MSDT-over-DT claim is
the harness's ``msdt_sweep_s`` against ``dt_sweep_s`` (``BENCHMARK.json``).
"""

from __future__ import annotations

from repro.experiments.reporting import format_table
from repro.experiments.weak_scaling import (
    PAPER_GRIDS_ORDER4,
    executed_weak_scaling,
    modeled_weak_scaling,
)
from repro.machine.params import MachineParams

_METHODS = ("planc", "dt", "msdt", "pp-init", "pp-approx")


def _points_to_rows(points):
    by_grid: dict[tuple, dict] = {}
    for p in points:
        by_grid.setdefault(p.grid, {})[p.method] = p.per_sweep_seconds
    return [
        ["x".join(str(d) for d in grid)] + [per.get(m, float("nan")) for m in _METHODS]
        for grid, per in by_grid.items()
    ]


def test_fig3b_modeled_paper_scale(benchmark, report):
    points = benchmark(modeled_weak_scaling, 4, 75, 200, PAPER_GRIDS_ORDER4, _METHODS)
    text = format_table(["grid"] + list(_METHODS), _points_to_rows(points),
                        title="Figure 3b (modeled, s_local=75, R=200) — per-sweep seconds")
    report("fig3b_weak_scaling_order4_modeled", text)
    by = {(p.grid, p.method): p.per_sweep_seconds for p in points}
    largest = PAPER_GRIDS_ORDER4[-1]
    assert by[(largest, "msdt")] < by[(largest, "dt")]
    # order-4 observation of the paper: the PP initialization step is *slower*
    # than a DT sweep because of the tensor transposes it needs
    assert by[(largest, "pp-init")] > by[(largest, "dt")]


def test_fig3b_executed_container_scale(benchmark, report):
    grids = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]
    points = benchmark.pedantic(
        executed_weak_scaling,
        args=(4, 6, 8, grids),
        kwargs={"n_sweeps": 2, "seed": 0, "params": MachineParams.container_like()},
        rounds=1, iterations=1,
    )
    text = format_table(["grid"] + list(_METHODS), _points_to_rows(points),
                        title="Figure 3b (executed, s_local=6, R=8) — modeled per-sweep seconds")
    report("fig3b_weak_scaling_order4_executed", text)
    by = {(tuple(p.grid), p.method): p.per_sweep_seconds for p in points}
    assert by[((1, 2, 2, 2), "msdt")] <= by[((1, 2, 2, 2), "dt")] * 1.05
