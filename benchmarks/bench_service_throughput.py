"""Service baseline: a 16-job burst of sparse multi-starts.

An asyncio load driver submits a burst of identical-shape
``multi_start`` requests (60^3 @ 1% sparse, 2 starts each) to a
:class:`~repro.service.DecompositionService` and awaits every job.  The
report's tracked metrics are deterministic work counters (total tracked
flops, total sweeps, nonzeros); CI compares them against the committed
``BENCH_service.json`` baseline and fails on >15% drift.  The service's
wall-clock numbers are the harness's ``small_service`` workload.

Run as a script to (re)generate the baseline::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --out BENCH_service.json

or through pytest (tiny shapes under ``REPRO_BENCH_TINY=1``) for the smoke
check.
"""

from __future__ import annotations

import asyncio

from repro.contract import default_engine, reset_default_engine
from repro.core.options import ALSOptions
from repro.data.sparse_synthetic import sparse_low_rank_tensor
from repro.service import DecompositionRequest, DecompositionService

from compare_bench import write_report_main

try:  # pytest-only flag; absent when run as a plain script
    from conftest import BENCH_TINY
except ImportError:  # pragma: no cover - script mode
    BENCH_TINY = False

FULL_CONFIG = {
    "shape": (60, 60, 60),
    "density": 0.01,
    "n_jobs": 16,
    "n_starts": 2,
    "rank": 8,
    "n_sweeps": 10,
    "n_workers": 4,
}
TINY_CONFIG = {
    "shape": (12, 12, 12),
    "density": 0.05,
    "n_jobs": 4,
    "n_starts": 2,
    "rank": 3,
    "n_sweeps": 3,
    "n_workers": 2,
}


def run_burst(config: dict) -> dict:
    """Submit the burst, await every job, and return the report."""
    tensor = sparse_low_rank_tensor(
        config["shape"], rank=config["rank"], density=config["density"],
        noise=0.1, seed=0,
    )
    options = ALSOptions(rank=config["rank"], n_sweeps=config["n_sweeps"],
                         tol=0.0, mttkrp="msdt")

    async def burst():
        async with DecompositionService(
            n_workers=config["n_workers"], max_queue=config["n_jobs"],
        ) as service:
            jobs = [
                await service.submit(
                    DecompositionRequest(
                        tensor, algorithm="multi_start",
                        n_starts=config["n_starts"], options=options, seed=seed,
                    )
                )
                for seed in range(config["n_jobs"])
            ]
            return [await service.result(job.id) for job in jobs]

    results = asyncio.run(burst())
    total_flops = sum(
        start.tracker.total_flops for result in results for start in result.results
    )
    total_sweeps = sum(
        start.n_sweeps for result in results for start in result.results
    )
    return {
        "name": "service_throughput",
        "config": config,
        "tracked": {
            "total_flops": int(total_flops),
            "total_sweeps": int(total_sweeps),
            "nnz": int(tensor.nnz),
        },
    }


def test_service_throughput():
    """Smoke entry point for pytest."""
    reset_default_engine()
    data = run_burst(TINY_CONFIG if BENCH_TINY else FULL_CONFIG)
    assert data["tracked"]["total_sweeps"] > 0
    # the burst's jobs replay the contraction plans the first one searched
    engine = default_engine().cache_info()
    assert engine["hits"] > engine["misses"]


if __name__ == "__main__":
    write_report_main(run_burst, FULL_CONFIG, TINY_CONFIG, "BENCH_service.json")
