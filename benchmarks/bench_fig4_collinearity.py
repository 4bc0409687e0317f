"""Figure 4 — PP speed-up over DT versus factor collinearity.

Paper setting: 1600^3 tensors, R = 400, PP tolerance 0.2, five collinearity
bins, five seeds per bin, run on a 4x4x4 grid.  The container-scale run keeps
the collinearity bins, the PP tolerance and the multiple seeds, with smaller
tensors and serial execution (the speed-up being measured is algorithmic:
exact DT sweeps vs mostly PP-approximated sweeps).  ``REPRO_BENCH_TINY`` runs
12^3 tensors and reports the numbers without asserting a timing.
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

    # the measured direction (20 repeat runs, one and two BLAS threads, on the
    # 2-vCPU container): PP beats DT in the two bins of collinearity >= 0.6,
    # medians 1.12-1.55x and 1.25-1.46x (the paper reports up to 1.8x at
    # 1600^3), because an approximated sweep costs ~0.30 ms against the ~0.45
    # ms of an exact one at this size; below 0.4 a run converges in a dozen
    # sweeps, too few to pay back the PP initializations, and PP takes
    # 0.65-1.05x the time of DT.  (While the R x R algebra of a sweep still
    # went through the einsum engine an approximated sweep cost more than an
    # exact one here and no bin reached 1.0: medians 0.56-1.09 in 20 runs.
    # With the exact-to-exact stop rule, 13 runs on one thread: 1.20-1.46x and
    # 1.17-1.44x, 0.66-0.93x below 0.4.)
    medians = [r.median_speedup for r in results]
    if not BENCH_TINY:
        assert all(m > 0.5 for m in medians)
        assert max(medians) > 1.2
        assert min(medians[-2:]) > 1.0
    # and PP must reach essentially the same fitness as the DT baseline
    for result in results:
        for fit_dt, fit_pp in zip(result.final_fitness_baseline, result.final_fitness_pp):
            assert fit_pp >= fit_dt - 0.05
