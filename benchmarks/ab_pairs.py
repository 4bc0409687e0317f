"""Alternating parent/change pairs of the wall-clock harness.

    python3 benchmarks/ab_pairs.py --parent HEAD --workload dense4_collinear \
        --pairs 10 --seed0 1 --seconds 24 --trace 0

The protocol ROADMAP.md asks of every speed claim ("How to claim a
speed-up"): the parent revision is exported with ``git archive`` into a
temporary directory, the change is the working tree this file lives in, and
``benchmarks/harness/run.py`` runs once per side and pair — one run at a time
(two shared cores), the side that goes first alternating from pair to pair,
both sides of a pair on the same seed (``seed0 + pair``).  Every run's last
JSON line is appended to ``--out``; at the end each metric gets both medians
with quartiles, the pairs in which the change read lower / higher / the same,
and the verdict of the rule: a gain is claimed only when the change wins at
least nine tenths of all pairs run (ties count for neither side), the medians
differ by more than the distance between the parent's quartiles, at least ten
pairs were run, and every run of both sides passed its correctness checks
(exit code 0 and ``"correct": true``): the clock of a run that computed
something else resolves nothing, in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
HARNESS = Path("benchmarks") / "harness" / "run.py"

#: share of all pairs the change has to win before a gain is claimed
WIN_SHARE = 0.9
#: fewer pairs than this resolve nothing, whatever they show
MIN_PAIRS = 10


def export_revision(revision: str, destination: Path) -> None:
    """``git archive`` copy of ``revision`` under ``destination``."""
    with subprocess.Popen(["git", "-C", str(REPO), "archive", revision],
                          stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(destination)],
                       stdin=archive.stdout, check=True)
    if archive.returncode:
        raise RuntimeError(f"git archive {revision} failed (exit {archive.returncode})")


def run_harness(checkout: Path, workload: str, seed: int, seconds: float,
                trace: int, tiny: bool) -> tuple[dict, int]:
    """One harness run in ``checkout``: its last standard-output line, parsed,
    and its exit code."""
    command = [sys.executable, str(HARNESS), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), done.returncode
    except (IndexError, ValueError):
        raise RuntimeError(
            f"harness run in {checkout} printed no report (exit {done.returncode}):\n"
            f"{done.stderr[-2000:]}"
        ) from None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], better: dict[str, str] | None = None) -> dict:
    """Per-metric comparison of the ``parent`` and ``change`` runs of ``runs``.

    ``runs`` holds one entry per harness run: ``{"pair": k, "side": "parent" |
    "change", "exit": <exit code>, "report": <the run's last JSON line>}``.
    ``better`` maps a metric to ``"lower"`` (the default) or ``"higher"``.
    Returns ``{"pairs": n, "failed": {side: ops}, "incorrect": {side: runs},
    "metrics": {name: {...}}}`` where ``incorrect`` counts the runs that
    exited non-zero or did not report ``"correct": true`` and every metric
    carries ``parent`` / ``change`` as ``(q1, median, q3)``, the
    pair counts ``lower`` / ``higher`` / ``tied`` (change against parent) and
    ``verdict``: ``"gain"``, ``"loss"`` or ``"unresolved"`` under the rule in
    the module docstring.
    """
    better = better or {}
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    sides = ("parent", "change")
    pairs = [pair for _, pair in sorted(by_pair.items()) if set(sides) <= set(pair)]
    if not pairs:
        raise ValueError("no pair has both a parent and a change run")
    failed = {side: sum(pair[side]["report"]["failed"] for pair in pairs) for side in sides}
    incorrect = {side: sum(pair[side].get("exit", 0) != 0
                           or pair[side]["report"].get("correct") is not True
                           for pair in pairs) for side in sides}
    metrics = {}
    for name, first in pairs[0]["parent"]["report"]["metrics"].items():
        parent, change = ([pair[side]["report"]["metrics"][name]["value"] for pair in pairs]
                          for side in sides)
        lower = sum(c < p for p, c in zip(parent, change))
        higher = sum(c > p for p, c in zip(parent, change))
        p_q1, p_median, p_q3 = _quartiles(parent)
        c_q1, c_median, c_q3 = _quartiles(change)
        wins, losses = (higher, lower) if better.get(name) == "higher" else (lower, higher)
        resolved = (len(pairs) >= MIN_PAIRS and not any(incorrect.values())
                    and abs(c_median - p_median) > p_q3 - p_q1)
        verdict = "unresolved"
        if resolved and wins >= WIN_SHARE * len(pairs):
            verdict = "gain"
        elif resolved and losses >= WIN_SHARE * len(pairs):
            verdict = "loss"
        metrics[name] = {
            "unit": first["unit"],
            "parent": (p_q1, p_median, p_q3),
            "change": (c_q1, c_median, c_q3),
            "lower": lower, "higher": higher, "tied": len(pairs) - lower - higher,
            "verdict": verdict,
        }
    return {"pairs": len(pairs), "failed": failed, "incorrect": incorrect,
            "metrics": metrics}


def format_summary(summary: dict) -> str:
    lines = [f"{summary['pairs']} pairs; ops_failed parent {summary['failed']['parent']}"
             f"  change {summary['failed']['change']}; incorrect runs parent "
             f"{summary['incorrect']['parent']}  change {summary['incorrect']['change']}"
             + ("  (nothing resolves)" if any(summary["incorrect"].values()) else ""),
             f"{'metric':<30}{'parent median (q1, q3)':>36}{'change median (q1, q3)':>36}"
             "   lower/higher/tied  verdict"]
    for name, m in summary["metrics"].items():
        cells = ["{1:.4g} ({0:.4g}, {2:.4g})".format(*m[side]) for side in ("parent", "change")]
        lines.append(f"{name:<30}{cells[0]:>36}{cells[1]:>36}"
                     f"   {m['lower']}/{m['higher']}/{m['tied']}  {m['verdict']}"
                     f"  [{m['unit']}]")
    return "\n".join(lines)


def metric_directions(checkout: Path) -> dict[str, str]:
    """``{metric: "lower" | "higher"}`` as ``BENCHMARK.json`` declares them."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["better"]
            for section in ("end_to_end", "per_layer") for entry in declared[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="revision the working tree is compared against")
    parser.add_argument("--workload", required=True,
                        help="one of the names in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1,
                        help="pair k runs both sides on seed seed0 + k")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="pass --tiny to the harness: a smoke test, not a measurement")
    parser.add_argument("--out", type=Path,
                        help="every run's last JSON line, one per line "
                        "(default benchmarks/results/ab_pairs_<workload>.jsonl)")
    return parser.parse_args(argv)


def run_pairs(checkouts: dict[str, Path], args, log) -> list[dict]:
    """The alternating runs; each is appended to ``log`` as it finishes."""
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            report, exit_code = run_harness(checkouts[side], args.workload,
                                            args.seed0 + pair, args.seconds,
                                            args.trace, args.tiny)
            run = {"pair": pair, "side": side, "seed": args.seed0 + pair,
                   "first": order[0], "exit": exit_code, "report": report}
            runs.append(run)
            log.write(json.dumps(run) + "\n")
            log.flush()
            print(f"pair {pair} {side:<6} seed {run['seed']} exit {exit_code} "
                  f"failed {report['failed']}", flush=True)
    return runs


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out or REPO / "benchmarks" / "results" / f"ab_pairs_{args.workload}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab-pairs-parent-") as scratch, \
            open(out, "w") as log:
        export_revision(args.parent, Path(scratch))
        runs = run_pairs({"parent": Path(scratch), "change": REPO}, args, log)
    print(format_summary(summarize(runs, metric_directions(REPO))))
    print(f"runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
