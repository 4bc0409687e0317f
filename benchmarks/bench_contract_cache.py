"""Plan-cache speedup of the shared contraction engine (supplementary).

Measures the same MTTKRP einsum executed (a) the seed way — a fresh
``np.einsum(..., optimize=True)`` per call, which re-runs the path search every
time — and (b) through the :class:`repro.contract.ContractionEngine`, which
searches the path once and replays the cached plan.  Also smoke-tests the
batched multi-start driver and reports how many plan-cache hits its starts
share.

Set ``REPRO_BENCH_TINY=1`` to shrink shapes and repeat counts (the CI bench
smoke job does this: it exists to catch import/runtime rot, not to time).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import BENCH_TINY as _TINY

from repro.contract import ContractionEngine, default_engine
from repro.core.multi_start import multi_start
from repro.core.options import ALSOptions
from repro.tensor.cp_format import random_cp_tensor

# (mode size, rank, repeats) — small contractions are where the per-call path
# search is a large fraction of the work, i.e. the regime of every mTTV on an
# already-contracted dimension-tree intermediate
_CASES = [(6, 2, 20)] if _TINY else [(8, 4, 2000), (12, 6, 1000), (24, 8, 200)]


def _mttkrp_problem(size, rank, seed=0):
    """Spec and operands of the mode-0 MTTKRP einsum for an order-4 tensor."""
    shape = (size,) * 4
    rng = np.random.default_rng(seed)
    tensor = rng.random(shape)
    factors = [rng.random((s, rank)) for s in shape]
    spec = "abcd,br,cr,dr->ar"
    operands = (tensor, factors[1], factors[2], factors[3])
    return spec, operands


def test_plan_cache_speedup(report):
    lines = ["Plan-cache speedup: repeated MTTKRP einsum, cached vs uncached",
             f"{'shape':>16s} {'rank':>5s} {'reps':>6s} "
             f"{'uncached (s)':>13s} {'cached (s)':>11s} {'speedup':>8s}"]
    for size, rank, repeats in _CASES:
        spec, operands = _mttkrp_problem(size, rank)

        expected = np.einsum(spec, *operands, optimize=True)
        start = time.perf_counter()
        for _ in range(repeats):
            np.einsum(spec, *operands, optimize=True)  # seed path: search every call
        uncached = time.perf_counter() - start

        engine = ContractionEngine()
        got = engine.contract(spec, *operands)  # warm the plan cache
        np.testing.assert_allclose(got, expected, atol=1e-10)
        out = np.empty_like(expected)
        start = time.perf_counter()
        for _ in range(repeats):
            engine.contract(spec, *operands, out=out)
        cached = time.perf_counter() - start
        np.testing.assert_allclose(out, expected, atol=1e-10)

        # every timed call replayed the cached plan
        assert engine.cache_info()["hits"] >= repeats
        speedup = uncached / cached if cached > 0 else float("inf")
        lines.append(f"{str((size,) * 4):>16s} {rank:5d} {repeats:6d} "
                     f"{uncached:13.4f} {cached:11.4f} {speedup:7.2f}x")
    report("contract_cache", "\n".join(lines))


def test_multi_start_shares_plans(report):
    shape = (6, 6, 6) if _TINY else (16, 16, 16)
    rank = 2 if _TINY else 4
    n_starts = 2 if _TINY else 4
    tensor = random_cp_tensor(shape, rank, seed=0).full()

    before = default_engine().cache_info()
    start = time.perf_counter()
    # the einsum engine: the dense dimension trees contract through BLAS and
    # never consult the plan cache
    options = ALSOptions(rank=rank, seed=1, n_sweeps=3 if _TINY else 10, tol=0.0,
                         mttkrp="naive")
    result = multi_start(tensor, options, n_starts=n_starts)
    elapsed = time.perf_counter() - start
    after = default_engine().cache_info()
    shared_hits = after["hits"] - before["hits"]
    new_plans = after["plans"] - before["plans"]

    rows = result.trajectory_table()
    assert len(rows) > 0
    assert shared_hits > 0  # later starts replay plans warmed by the first
    report(
        "multi_start",
        "\n".join(
            [
                f"Multi-start CP-ALS (shape={shape}, rank={rank}, K={n_starts})",
                f"  best start     : #{result.best_index} "
                f"(fitness {result.fitness:.5f})",
                "  per-start fit  : "
                + ", ".join(f"{f:.5f}" for f in result.fitnesses()),
                f"  trajectory rows: {len(rows)}",
                f"  plan cache     : {shared_hits} hits across starts, "
                f"{new_plans} new plans",
                f"  wall time      : {elapsed:.3f} s",
            ]
        ),
    )
