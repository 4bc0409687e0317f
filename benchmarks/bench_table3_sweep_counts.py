"""Table III — sweep-type statistics behind the Figure 4 study.

For each collinearity bin the paper reports the average number of exact ALS
sweeps, PP initialization steps and PP approximated sweeps of the PP runs.
The counts are deterministic, so what is asserted on them holds under
``REPRO_BENCH_TINY`` (12^3 tensors) too.
"""

from __future__ import annotations

from conftest import BENCH_TINY

from repro.experiments.collinearity_speedup import (
    PAPER_COLLINEARITY_BINS,
    collinearity_speedup_study,
)
from repro.experiments.reporting import format_table


_SIZE, _RANK, _SEEDS = (12, 4, 1) if BENCH_TINY else (36, 10, 2)
_RESTART = ["als", "pp-init", "pp-approx"]


def test_table3_sweep_counts(benchmark, report):
    results = benchmark.pedantic(
        collinearity_speedup_study,
        kwargs=dict(mode_size=_SIZE, rank=_RANK, bins=PAPER_COLLINEARITY_BINS,
                    n_seeds=_SEEDS, n_sweeps=100, tol=1e-5, pp_tol=0.2, seed0=7),
        rounds=1, iterations=1,
    )
    rows = [result.table3_row() for result in results]
    body = [[r["collinearity"], r["num_als"], r["num_pp_init"], r["num_pp_approx"],
             r["median_speedup"]] for r in rows]
    text = format_table(
        ["collinearity", "Num-ALS", "Num-PP-init", "Num-PP-approx", "median speedup"],
        body,
        title=f"Table III (executed, {_SIZE}^3, R={_RANK}, PP tol 0.2)",
    )
    report("table3_sweep_counts", text)

    # every bin ran PP phases, none more than it ran exact sweeps (Table III:
    # Num-PP-init <= Num-ALS), and the approximated sweeps dominate the exact
    # ones wherever PP activates (the mechanism behind the paper's speed-ups)
    assert all(1 <= r["num_pp_init"] <= r["num_als"] for r in rows)
    assert sum(r["num_pp_approx"] for r in rows) > sum(r["num_als"] for r in rows)
    # a converged run stops restarting: no run of one-sweep phases at its end
    for result in results:
        for types in result.pp_sweep_types:
            assert types[-7:-1] != _RESTART + _RESTART
