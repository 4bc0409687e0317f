"""Figures 3c-3f — per-sweep breakdown (TTM / mTTV / hadamard / solve / others).

The paper shows the breakdown for the order-3 runs at grids 2x4x4 and 8x8x8
(Figs. 3c, 3d) and the order-4 runs at grids 2x2x2x2 and 4x4x4x4 (Figs. 3e,
3f).  The modeled breakdowns (seconds per kernel category) are produced at
the paper's scale; an executed breakdown at container scale reports the
counted flops per kernel category of one small grid of each order.  The
wall-clock version of the MSDT-over-DT claim is the harness's
``msdt_sweep_s`` against ``dt_sweep_s`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import format_table
from repro.experiments.weak_scaling import executed_weak_scaling, modeled_weak_scaling
from repro.machine.params import MachineParams

_PANELS = {
    "fig3c": dict(order=3, s_local=400, rank=400, grid=(2, 4, 4)),
    "fig3d": dict(order=3, s_local=400, rank=400, grid=(8, 8, 8)),
    "fig3e": dict(order=4, s_local=75, rank=200, grid=(2, 2, 2, 2)),
    "fig3f": dict(order=4, s_local=75, rank=200, grid=(4, 4, 4, 4)),
}


def _breakdowns(points) -> dict[str, dict[str, float]]:
    return {p.method: p.breakdown for p in points}


def _breakdown_table(breakdowns, title: str) -> str:
    categories = list(dict.fromkeys(c for per_cat in breakdowns.values() for c in per_cat))
    rows = [[method] + [per_cat.get(c, 0.0) for c in categories] + [sum(per_cat.values())]
            for method, per_cat in breakdowns.items()]
    return format_table(["method"] + categories + ["total"], rows, title=title)


@pytest.mark.parametrize("panel", list(_PANELS))
def test_fig3_breakdown_modeled(benchmark, report, panel):
    config = _PANELS[panel]
    points = benchmark(
        modeled_weak_scaling, config["order"], config["s_local"], config["rank"],
        [config["grid"]],
    )
    out = _breakdowns(points)
    text = _breakdown_table(
        out, title=f"Figure {panel[-2:]} (modeled) grid={'x'.join(map(str, config['grid']))} "
                   "— per-sweep seconds by kernel"
    )
    report(f"{panel}_breakdown_modeled", text)
    # the paper's headline observation: TTM dominates every kernel except the
    # PP approximated step, which is mTTV bound
    assert out["dt"]["ttm"] > out["dt"]["mttv"]
    assert out["pp-approx"]["ttm"] == 0.0
    assert out["pp-approx"]["mttv"] > 0.0


@pytest.mark.parametrize("order,grid,s_local,rank", [
    (3, (2, 2, 1), 12, 12),
    (4, (2, 2, 1, 1), 6, 8),
])
def test_fig3_breakdown_executed(benchmark, report, order, grid, s_local, rank):
    points = benchmark.pedantic(
        executed_weak_scaling,
        args=(order, s_local, rank, [grid]),
        kwargs={"n_sweeps": 2, "seed": 0, "params": MachineParams.container_like()},
        rounds=1, iterations=1,
    )
    out = _breakdowns(points)
    label = "x".join(map(str, grid))
    text = _breakdown_table(out, title=f"Executed breakdown (order {order}, grid {label}) "
                                       "— mean counted flops per sweep, max over ranks")
    report(f"fig3_breakdown_executed_order{order}", text)
    # the same headline on counted flops
    assert out["dt"]["ttm"] > out["dt"]["mttv"]
    assert "ttm" not in out["pp-approx"]
    assert out["pp-approx"]["mttv"] > 0
