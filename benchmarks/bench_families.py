"""Decomposition-family baseline: nncp and masked sweep flops on 60^3 @ 1%.

The regression anchor for the non-least-squares families riding the shared
sweep kernel (:mod:`repro.core.updates`): a fixed synthetic sparse low-rank
tensor decomposed for a fixed number of sweeps with

* ``nn_cp_als`` under both nonnegative rules (HALS, multiplicative), and
* ``masked_cp_als`` with the stored-nonzero pattern as the mask.

Tracked metrics are the deterministic per-family flop counts (CI fails on
>15% drift against the committed ``BENCH_families.json``); wall-clock and
final fitness are informational.

Run as a script to (re)generate the baseline::

    PYTHONPATH=src python benchmarks/bench_families.py --out BENCH_families.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.masked_cp_als import masked_cp_als
from repro.core.nn_cp_als import nn_cp_als
from repro.core.options import MaskedOptions, NNOptions
from repro.data.sparse_synthetic import sparse_low_rank_tensor
from repro.sparse.coo import CooTensor

try:  # pytest-only flag; absent when run as a plain script
    from conftest import BENCH_TINY
except ImportError:  # pragma: no cover - script mode
    BENCH_TINY = False

FULL_CONFIG = {"shape": (60, 60, 60), "density": 0.01, "rank": 6, "n_sweeps": 5}
TINY_CONFIG = {"shape": (15, 15, 15), "density": 0.05, "rank": 3, "n_sweeps": 2}


def run_families(config: dict) -> dict:
    tensor = sparse_low_rank_tensor(
        config["shape"], rank=config["rank"], density=config["density"],
        noise=0.1, seed=0,
    )
    rank, n_sweeps = config["rank"], config["n_sweeps"]
    tracked: dict = {"nnz": int(tensor.nnz)}
    info: dict = {}

    runs = {
        "nncp_hals": lambda: nn_cp_als(
            tensor, NNOptions(rank=rank, n_sweeps=n_sweeps, tol=0.0, update="hals",
                              seed=0)),
        "nncp_multiplicative": lambda: nn_cp_als(
            # the multiplicative rule needs a nonnegative tensor; the noisy
            # synthetic one has a few negative entries, so clamp its values
            # (explicit zeros are kept, so the pattern — and the MTTKRP
            # work — is unchanged)
            CooTensor(tensor.indices, np.maximum(tensor.values, 0.0),
                      tensor.shape),
            NNOptions(rank=rank, n_sweeps=n_sweeps, tol=0.0, update="multiplicative",
                      seed=0)),
        "masked": lambda: masked_cp_als(
            tensor, MaskedOptions(rank=rank, n_sweeps=n_sweeps, tol=0.0, seed=0)),
    }
    for name, run in runs.items():
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        tracked[f"flops_{name}"] = int(result.tracker.total_flops)
        info[f"wall_s_{name}"] = wall
        info[f"fitness_{name}"] = result.fitness
    info["masked_n_observed"] = int(tensor.nnz)
    return {
        "name": "families_baseline",
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in config.items()},
        "tracked": tracked,
        "info": info,
    }


def format_report(data: dict) -> str:
    lines = [f"decomposition-family sweep baseline ({data['config']})", ""]
    for section in ("tracked", "info"):
        lines.append(f"{section}:")
        for key, value in data[section].items():
            lines.append(f"  {key:>24s}: {value}")
    return "\n".join(lines)


def test_families_baseline(report):
    """Smoke/report entry point for the pytest harness."""
    data = run_families(TINY_CONFIG if BENCH_TINY else FULL_CONFIG)
    # every family must do real tracked work on top of the shared kernel
    for key in ("flops_nncp_hals", "flops_nncp_multiplicative", "flops_masked"):
        assert data["tracked"][key] > 0
    # the masked EM fill does strictly more per-sweep work than plain nn ALS
    # at the same engine (extra model-at-mask MTTKRP + cross-Gram correction)
    assert data["tracked"]["flops_masked"] > data["tracked"]["flops_nncp_hals"]
    report("bench_families", format_report(data))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("BENCH_families.json"))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes (smoke only; not baseline-comparable)")
    args = parser.parse_args()
    data = run_families(TINY_CONFIG if args.tiny else FULL_CONFIG)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(format_report(data))
    print(f"\n[saved to {args.out}]")


if __name__ == "__main__":
    main()
