"""Decomposition-family baseline: nncp and masked sweep flops on 60^3 @ 1%.

The regression anchor for the non-least-squares families riding the shared
sweep kernel (:mod:`repro.core.updates`): a fixed synthetic sparse low-rank
tensor decomposed for a fixed number of sweeps with

* ``nn_cp_als`` under both nonnegative rules (HALS, multiplicative), and
* ``masked_cp_als`` with the stored-nonzero pattern as the mask.

The report's tracked metrics are the deterministic per-family flop counts
(CI fails on >15% drift against the committed ``BENCH_families.json``).

Run as a script to (re)generate the baseline::

    PYTHONPATH=src python benchmarks/bench_families.py --out BENCH_families.json
"""

from __future__ import annotations

import numpy as np

from repro.core.masked_cp_als import masked_cp_als
from repro.core.nn_cp_als import nn_cp_als
from repro.core.options import MaskedOptions, NNOptions
from repro.data.sparse_synthetic import sparse_low_rank_tensor
from repro.sparse.coo import CooTensor

from compare_bench import write_report_main

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
        tracked[f"flops_{name}"] = int(run().tracker.total_flops)
    return {"name": "families_baseline", "config": config, "tracked": tracked}


def test_families_baseline():
    """Smoke entry point for pytest."""
    data = run_families(TINY_CONFIG if BENCH_TINY else FULL_CONFIG)
    # every family must do real tracked work on top of the shared kernel
    for key in ("flops_nncp_hals", "flops_nncp_multiplicative", "flops_masked"):
        assert data["tracked"][key] > 0
    # the masked EM fill does strictly more per-sweep work than plain nn ALS
    # at the same engine (extra model-at-mask MTTKRP + cross-Gram correction)
    assert data["tracked"]["flops_masked"] > data["tracked"]["flops_nncp_hals"]


if __name__ == "__main__":
    write_report_main(run_families, FULL_CONFIG, TINY_CONFIG, "BENCH_families.json")
