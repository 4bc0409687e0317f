"""Weak-scaling study on the simulated machine (the container-scale Figure 3a).

Runs Algorithm 3 (parallel CP-ALS with local dimension trees) and Algorithm 4
(communication-efficient parallel PP) over a sequence of processor grids with
a fixed per-processor tensor block, printing the modeled per-sweep time of
every method and, at the largest grid, the counted TTM and mTTV flops of its
sweeps — the same study as the paper's Figure 3 weak scaling and breakdown,
executed on the in-process simulated machine.

Run with ``python examples/parallel_scaling_study.py``.
"""

from __future__ import annotations

from repro.experiments.reporting import format_table
from repro.experiments.weak_scaling import executed_weak_scaling, modeled_weak_scaling
from repro.machine.params import MachineParams

METHODS = ("planc", "dt", "msdt", "pp-init", "pp-approx")


def main() -> None:
    # 1. executed at container scale: the local kernels really run, the
    #    collectives move the actual data and charge the alpha-beta cost model
    grids = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    points = executed_weak_scaling(3, s_local=14, rank=16, grids=grids,
                                   n_sweeps=3, seed=0,
                                   params=MachineParams.container_like())
    by_grid: dict[tuple, dict] = {}
    for p in points:
        by_grid.setdefault(p.grid, {})[p.method] = p.per_sweep_seconds
    rows = [["x".join(map(str, g))] + [per.get(m, 0.0) for m in METHODS]
            for g, per in by_grid.items()]
    print(format_table(["grid"] + list(METHODS), rows,
                       title="Executed weak scaling (s_local=14, R=16) — "
                             "modeled per-sweep seconds"))

    #    the Fig. 3c-f headline at the largest grid, in counted flops
    largest = grids[-1]
    flops = {p.method: p.breakdown for p in points if p.grid == largest}
    print(f"\nMean flops per sweep at grid {'x'.join(map(str, largest))} (max over ranks): "
          f"DT spends {flops['dt']['ttm']:.3g} on TTM against {flops['dt']['mttv']:.3g} "
          f"on mTTV; a PP approximated sweep spends {flops['pp-approx'].get('ttm', 0):.3g} "
          f"on TTM and {sum(flops['pp-approx'].values()):.3g} in total")

    # 2. modeled at the paper's scale (Fig. 3a: s_local=400, R=400, up to 1024 procs)
    modeled = modeled_weak_scaling(3, 400, 400)
    by_grid = {}
    for p in modeled:
        by_grid.setdefault(p.grid, {})[p.method] = p.per_sweep_seconds
    rows = [["x".join(map(str, g))] + [per.get(m, 0.0) for m in METHODS]
            for g, per in by_grid.items()]
    print()
    print(format_table(["grid"] + list(METHODS), rows,
                       title="Modeled weak scaling at paper scale "
                             "(s_local=400, R=400) — per-sweep seconds"))

    largest = max(by_grid, key=lambda g: len(by_grid[g]) and sum(g))
    dt = by_grid[largest]["dt"]
    print(f"\nAt the largest grid {largest}: MSDT speed-up over DT = "
          f"{dt / by_grid[largest]['msdt']:.2f}x (paper: 1.25x), "
          f"PP-approx speed-up = {dt / by_grid[largest]['pp-approx']:.2f}x (paper: 1.94x)")


if __name__ == "__main__":
    main()
