"""``--selfcheck N``: does the benchmark repeat?  Two sets of N runs, compared.

Each set runs every workload N times, each time in a fresh interpreter and
with another seed (``--seed``, ``--seed + 1``, ...; the same seeds in both
sets), as the acceptance driver does.  For every end-to-end metric and
workload it prints both set medians, how far they disagree, the spread of the
normalised metric and of the raw minimum (distance between the quartiles over
the median), and the bound that follows: the largest of a floor (5 %, 3 % for
``peak_rss_mb``), twice the disagreement and three times the spread.  A timing
metric that needs more than 10 % is flagged (the issue would demote it to a
per-layer metric; on this machine that is all of them, see README.md).  One traced run per workload and
set checks that every exact metric (counts, flops, fitness) repeats exactly.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: per-layer metrics that are counts or exact results, not timings
EXACT = (
    "trees.dt_flops", "trees.msdt_flops", "trees.pp_operator_mb",
    "trees.cache_hit_ratio", "contract.plan_hit_ratio", "sparse.csf_mb",
    "sparse.csf_cache_hit_ratio", "core.als_sweeps_to_tol",
    "core.pp_exact_sweeps", "core.pp_init_count", "core.pp_approx_sweeps",
    "core.fitness_als", "core.fitness_pp", "grid.imbalance_pct",
    "distributed.max_rank_nnz", "machine.modeled_sweep_s",
    "comm.words_per_sweep", "comm.messages_per_sweep", "service.jobs_failed",
)


def run_once(workload: str, seed: int, seconds: float, trace: int,
             out_dir: Path) -> dict:
    """One run in a fresh interpreter; its report, or ``SystemExit``."""
    path = out_dir / f"{workload}-{seed}-{trace}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--report-out", str(path)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(path.read_text())


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(args) -> int:
    if args.selfcheck < 5:
        print("--selfcheck needs N >= 5", file=sys.stderr)
        return 2
    names = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in names["workloads"]]
    metrics = [m["name"] for m in names["end_to_end"]]
    seeds = [args.seed + i for i in range(args.selfcheck)]

    sets = []
    with contextlib.ExitStack() as stack:
        # the runs' reports are kept only if --report-out names a directory
        scratch = Path(args.report_out or stack.enter_context(
            tempfile.TemporaryDirectory(dir=HERE, prefix=".selfcheck-")))
        for index in range(2):
            out_dir = scratch / f"set{index + 1}"
            out_dir.mkdir(parents=True, exist_ok=True)
            reports = {w: [run_once(w, s, args.seconds, 0, out_dir) for s in seeds]
                       for w in workloads}
            traced = {w: run_once(w, seeds[0], args.seconds, 1, out_dir)
                      for w in workloads}
            sets.append((reports, traced))
            print(f"set {index + 1} done", flush=True)

    worst = 0
    print(f"{'workload':<18}{'metric':<20}{'median 1':>12}{'median 2':>12}"
          f"{'disagree':>10}{'spread':>9}{'raw spread':>11}{'bound':>8}")
    for workload in workloads:
        for metric in metrics:
            values, raws = [], []
            for reports, _ in sets:
                entries = [r["end_to_end"][metric] for r in reports[workload]]
                values.append([e["value"] for e in entries])
                raws.append([e.get("raw", {}).get("min", e["value"]) for e in entries])
            medians = [statistics.median(v) for v in values]
            disagree = abs(medians[1] - medians[0]) / medians[0]
            own = max(spread(v) for v in values)
            raw = max(spread(v) for v in raws)
            floor = 0.03 if metric == "peak_rss_mb" else 0.05
            bound = max(floor, 2 * disagree, 3 * own)
            flag = "  > 10 %" if bound > 0.10 and metric != "peak_rss_mb" else ""
            print(f"{workload:<18}{metric:<20}{medians[0]:>12.5g}{medians[1]:>12.5g}"
                  f"{disagree:>10.2%}{own:>9.2%}{raw:>11.2%}{bound:>8.1%}{flag}")
    for workload in workloads:
        first, second = (traced[workload]["per_layer"] for _, traced in sets)
        for name in EXACT:
            if first[name]["value"] != second[name]["value"]:
                worst = 1
                print(f"NOT EXACT {workload} {name}: {first[name]['value']} "
                      f"vs {second[name]['value']}")
    print("exact metrics repeat" if not worst else "exact metrics differ")
    return worst
