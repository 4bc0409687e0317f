"""Sparse sweep baseline: 200^3 @ 1% CP-ALS with the dt and msdt engines.

The standard sparse regression anchor: a fixed synthetic low-rank tensor
(200^3, ~1% density, 80k nonzeros) decomposed for a fixed number of sweeps
with each amortizing engine.  The report's tracked metrics are the
deterministic per-engine flop counts, the PP-checkpoint operator-build flops
off a warmed MSDT provider, and the nnz-balanced partition's max-imbalance on
the benchmark grid (CI fails on >15% drift against the committed
``BENCH_sparse.json``).

Run as a script to (re)generate the baseline::

    PYTHONPATH=src python benchmarks/bench_sparse_baseline.py --out BENCH_sparse.json
"""

from __future__ import annotations

import numpy as np

from repro.core.cp_als import cp_als
from repro.core.options import ALSOptions
from repro.data.sparse_synthetic import sparse_low_rank_tensor
from repro.grid.balance import make_partition
from repro.grid.processor_grid import ProcessorGrid
from repro.machine.cost_tracker import CostTracker
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider

from compare_bench import write_report_main

try:  # pytest-only flag; absent when run as a plain script
    from conftest import BENCH_TINY
except ImportError:  # pragma: no cover - script mode
    BENCH_TINY = False

FULL_CONFIG = {"shape": (200, 200, 200), "density": 0.01, "rank": 8,
               "n_sweeps": 5, "grid": (2, 2, 2)}
TINY_CONFIG = {"shape": (20, 20, 20), "density": 0.05, "rank": 3,
               "n_sweeps": 2, "grid": (2, 2, 2)}

ENGINES = ("dt", "msdt")


def pp_checkpoint_flops(tensor, rank: int) -> int:
    """Tracked flops of one PP-checkpoint operator build.

    Mirrors the ``pp_cp_als`` configuration: the checkpoint is taken right
    after an exact MSDT sweep, so the provider's structural caches and
    still-valid intermediates already exist — only the pairwise-operator
    build itself is charged.
    """
    rng = np.random.default_rng(0)
    factors = [rng.random((s, rank)) for s in tensor.shape]
    tracker = CostTracker()
    provider = make_provider("msdt", tensor, factors, tracker=tracker)
    for mode in range(len(tensor.shape)):
        provider.mttkrp(mode)
    before = tracker.total_flops
    PairwiseOperators.build(tensor, provider.factors, tracker=tracker,
                            provider=provider)
    return tracker.total_flops - before


def run_sweeps(config: dict) -> dict:
    tensor = sparse_low_rank_tensor(
        config["shape"], rank=config["rank"], density=config["density"],
        noise=0.1, seed=0,
    )
    tracked: dict = {"nnz": int(tensor.nnz)}
    for engine in ENGINES:
        options = ALSOptions(rank=config["rank"], n_sweeps=config["n_sweeps"],
                             tol=0.0, mttkrp=engine, seed=0)
        result = cp_als(tensor, options=options)
        tracked[f"flops_{engine}"] = int(result.tracker.total_flops)
    tracked["flops_pp_checkpoint"] = int(pp_checkpoint_flops(tensor, config["rank"]))

    # nnz-balanced partition quality on the benchmark grid: max-imbalance is
    # a deterministic function of the (seeded) tensor, so a drift here means
    # the balancer itself changed
    partition = make_partition("nnz-balanced", tensor,
                               ProcessorGrid(tuple(config["grid"])))
    tracked["partition_max_imbalance_pct"] = int(
        round(100 * float(partition.report(tensor).imbalance))
    )
    return {"name": "sparse_baseline", "config": config, "tracked": tracked}


def test_sparse_baseline():
    """Smoke entry point for pytest."""
    data = run_sweeps(TINY_CONFIG if BENCH_TINY else FULL_CONFIG)
    # the amortizing tree engines must run, and msdt must not do more work
    # than the standard tree (its whole point is reuse across sweeps)
    assert data["tracked"]["flops_msdt"] <= data["tracked"]["flops_dt"]


if __name__ == "__main__":
    write_report_main(run_sweeps, FULL_CONFIG, TINY_CONFIG, "BENCH_sparse.json")
