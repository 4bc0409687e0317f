"""Figure 4 — PP speed-up over DT versus factor collinearity.

Paper setting: 1600^3 tensors, R = 400, PP tolerance 0.2, five collinearity
bins, five seeds per bin, run on a 4x4x4 grid.  The container-scale run keeps
the collinearity bins, the PP tolerance and the multiple seeds, with smaller
tensors and serial execution (the speed-up being measured is algorithmic:
exact DT sweeps vs mostly PP-approximated sweeps).  ``REPRO_BENCH_TINY`` runs
12^3 tensors.  The speed-ups are reported, never asserted: the wall-clock
claim is the harness's ``dense4_collinear`` workload (``pp_solve_s`` against
``als_solve_s``), and ``bench_table3_sweep_counts.py`` asserts the sweep
counts behind it.
"""

from __future__ import annotations

from conftest import BENCH_TINY

from repro.experiments.collinearity_speedup import (
    PAPER_COLLINEARITY_BINS,
    collinearity_speedup_study,
)
from repro.experiments.reporting import format_table


_SIZE, _RANK, _SEEDS = (12, 4, 1) if BENCH_TINY else (40, 12, 2)


def test_fig4_pp_speedup_vs_collinearity(benchmark, report):
    results = benchmark.pedantic(
        collinearity_speedup_study,
        kwargs=dict(mode_size=_SIZE, rank=_RANK, bins=PAPER_COLLINEARITY_BINS,
                    n_seeds=_SEEDS, n_sweeps=100, tol=1e-5, pp_tol=0.2, seed0=0),
        rounds=1, iterations=1,
    )
    body = []
    for result in results:
        q25, q50, q75 = result.quartiles
        body.append([
            f"[{result.collinearity_range[0]:.1f}, {result.collinearity_range[1]:.1f})",
            q25, q50, q75, min(result.speedups), max(result.speedups),
        ])
    text = format_table(
        ["collinearity", "q25 speedup", "median speedup", "q75 speedup", "min", "max"],
        body,
        title=f"Figure 4 (executed, {_SIZE}^3, R={_RANK}, PP tol 0.2) — PP speed-up over DT",
    )
    report("fig4_collinearity_speedup", text)

    # PP must reach essentially the same fitness as the DT baseline
    for result in results:
        for fit_dt, fit_pp in zip(result.final_fitness_baseline, result.final_fitness_pp):
            assert fit_pp >= fit_dt - 0.05
