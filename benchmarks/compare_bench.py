"""Compare a fresh benchmark JSON report against a committed baseline.

Usage::

    python benchmarks/compare_bench.py BENCH_service.json /tmp/BENCH_service.json

A report has exactly three keys: ``name``, ``config`` and ``tracked``.  The
``tracked`` metrics are deterministic work counters (flop counts, sweep
counts, nonzeros), so any relative drift beyond the threshold (default 15%)
means the computation itself changed and the run exits 1.  A report with any
other layout, or a config that differs from the baseline's, exits 2.
Wall-clock numbers come from the harness (``benchmarks/harness``), never from
these reports.

The baseline scripts (``bench_families.py``, ``bench_sparse_baseline.py``,
``bench_service_throughput.py``, ``bench_scaling_baseline.py``) write their
reports through :func:`write_report_main`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

REPORT_KEYS = {"name", "config", "tracked"}


def relative_drift(baseline: float, candidate: float) -> float:
    """|candidate - baseline| / |baseline| (0 when both are zero)."""
    if baseline == 0:
        return 0.0 if candidate == 0 else float("inf")
    return abs(candidate - baseline) / abs(baseline)


def compare(baseline: dict, candidate: dict, threshold: float) -> list[str]:
    """Failure messages for tracked metrics drifting beyond ``threshold``."""
    failures = []
    base_tracked, cand_tracked = baseline["tracked"], candidate["tracked"]
    missing = set(base_tracked) - set(cand_tracked)
    if missing:
        failures.append(f"candidate is missing tracked metrics: {sorted(missing)}")
    for key in sorted(set(base_tracked) & set(cand_tracked)):
        drift = relative_drift(base_tracked[key], cand_tracked[key])
        marker = "FAIL" if drift > threshold else "ok"
        print(f"  tracked {key:>28s}: {base_tracked[key]:>16} -> "
              f"{cand_tracked[key]:>16}  ({drift:7.2%} drift) {marker}")
        if drift > threshold:
            failures.append(
                f"tracked metric {key!r} drifted {drift:.2%} "
                f"(baseline {base_tracked[key]}, candidate {cand_tracked[key]}, "
                f"threshold {threshold:.0%})"
            )
    return failures


def write_report_main(run: Callable[[dict], dict], full_config: dict,
                      tiny_config: dict, default_out: str) -> None:
    """Command line of a baseline script: ``[--out PATH] [--tiny]``.

    Runs ``run`` on the full (or tiny) configuration, writes the report it
    returns as JSON and prints its tracked metrics.
    """
    parser = argparse.ArgumentParser(description=sys.modules["__main__"].__doc__)
    parser.add_argument("--out", type=Path, default=Path(default_out))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes (smoke only; not baseline-comparable)")
    args = parser.parse_args()
    data = run(tiny_config if args.tiny else full_config)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"{data['name']} ({data['config']})")
    for key, value in data["tracked"].items():
        print(f"  tracked {key:>28s}: {value}")
    print(f"[saved to {args.out}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="maximum relative drift of tracked metrics")
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    candidate = json.loads(args.candidate.read_text())
    for path, data in ((args.baseline, baseline), (args.candidate, candidate)):
        if set(data) != REPORT_KEYS:
            print(f"error: {path} has keys {sorted(data)}; a report has exactly "
                  f"{sorted(REPORT_KEYS)}", file=sys.stderr)
            return 2
    if baseline["config"] != candidate["config"]:
        print(f"error: config mismatch\n  baseline:  {baseline['config']}\n"
              f"  candidate: {candidate['config']}", file=sys.stderr)
        return 2

    print(f"comparing {args.candidate} against baseline {args.baseline} "
          f"(threshold {args.threshold:.0%})")
    failures = compare(baseline, candidate, args.threshold)
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    print("all tracked metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
