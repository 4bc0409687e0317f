"""Sparse vs dense MTTKRP across densities, single-shot and sweep-level.

Two benchmarks over sparse low-rank tensors:

* ``test_sparse_vs_dense_mttkrp`` — one mode-0 MTTKRP through the dense
  einsum kernel on the densified tensor (the oracle), the ``O(nnz * R * N)``
  COO gather/segmented-reduce kernel (bounded workspace, the generic path
  that also powers the sparse PP operators), and the sparse-unfolding engine
  (cached CSR matricization times the dense Khatri-Rao matrix).
* ``test_sparse_sweep_engines`` — full ALS-style sweeps (MTTKRP every mode,
  factor update after each) through the recompute engine and the CSF-based
  ``dt`` / ``msdt`` sparse dimension trees, with the dense ``dt`` tree for
  scale.  This is the regime the paper's amortization argument is about: the
  trees reuse each first-level contraction across the sweep's remaining mode
  updates, so they track fewer flops *and* run faster per steady-state sweep
  than recomputing every MTTKRP — while agreeing with the dense oracle to
  1e-10.

At real-world densities the sparse backend wins while matching the dense
result to 1e-10: the unfolding engine beats dense across the whole ``<= 1%``
range, the bounded-workspace COO kernel from ``~0.1%`` down, and the sparse
trees beat sparse recompute per sweep at every density.

Set ``REPRO_BENCH_TINY=1`` to shrink shapes (the CI bench smoke job does
this: it exists to catch import/runtime rot, not to time).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import BENCH_TINY as _TINY

from repro.data import sparse_low_rank_tensor
from repro.machine.cost_tracker import CostTracker
from repro.sparse import sparse_mttkrp
from repro.sparse.mttkrp import sparse_partial_mttkrp
from repro.tensor.mttkrp import mttkrp, partial_mttkrp
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider

_SHAPE = (20, 20, 20) if _TINY else (200, 200, 200)
_RANK = 4 if _TINY else 16
_DENSITIES = [0.05] if _TINY else [0.0005, 0.001, 0.005, 0.01]
_REPEATS = 1 if _TINY else 5


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_sparse_vs_dense_mttkrp(report):
    rng = np.random.default_rng(0)
    factors = [rng.random((s, _RANK)) for s in _SHAPE]
    lines = [
        f"Sparse vs dense MTTKRP, shape={_SHAPE}, rank={_RANK} (mode 0, best of {_REPEATS})",
        f"{'density':>9s} {'nnz':>9s} {'dense (s)':>10s} {'coo (s)':>9s} "
        f"{'unfold (s)':>11s} {'coo speedup':>12s} {'unfold speedup':>15s}",
    ]
    coo_speedups, unfold_speedups = {}, {}
    for density in _DENSITIES:
        coo = sparse_low_rank_tensor(_SHAPE, rank=_RANK, density=density,
                                     noise=0.1, seed=7)
        dense = coo.to_dense()
        provider = make_provider("unfolding", coo, [f.copy() for f in factors])

        expected = mttkrp(dense, factors, 0)
        scale = max(float(np.abs(expected).max()), 1.0)
        for name, got in (("coo", sparse_mttkrp(coo, factors, 0)),
                          ("unfolding", provider.mttkrp(0))):
            err = float(np.abs(got - expected).max())
            assert err <= 1e-10 * scale, (
                f"sparse {name} MTTKRP diverged from the dense oracle at "
                f"density {density}: max|diff|={err:.2e}"
            )

        dense_t = _time_best(lambda: mttkrp(dense, factors, 0), _REPEATS)
        coo_t = _time_best(lambda: sparse_mttkrp(coo, factors, 0), _REPEATS)
        unfold_t = _time_best(lambda: provider.mttkrp(0), _REPEATS)
        coo_speedups[density] = dense_t / coo_t if coo_t > 0 else float("inf")
        unfold_speedups[density] = dense_t / unfold_t if unfold_t > 0 else float("inf")
        lines.append(
            f"{density:9.4f} {coo.nnz:9d} {dense_t:10.4f} {coo_t:9.4f} "
            f"{unfold_t:11.4f} {coo_speedups[density]:11.2f}x "
            f"{unfold_speedups[density]:14.2f}x"
        )

    if not _TINY:
        # acceptance: on a 200^3 tensor the sparse backend beats the dense
        # MTTKRP at every density <= 1% (unfolding engine), and the
        # bounded-workspace COO kernel wins on its own at <= 0.1%
        assert all(s > 1.0 for d, s in unfold_speedups.items() if d <= 0.01), \
            unfold_speedups
        assert all(s > 1.0 for d, s in coo_speedups.items() if d <= 0.001), \
            coo_speedups
        lines.append("acceptance: unfolding engine beats dense at <= 1% density; "
                     "COO kernel beats dense at <= 0.1%")
    report("sparse_mttkrp", "\n".join(lines))


_SWEEP_DENSITY = 0.05 if _TINY else 0.01
_WARMUP_SWEEPS = 2   # structural builds (CSF layouts, fiber regroupings) amortize
_TIMED_SWEEPS = 1 if _TINY else 3


def _run_sweeps(provider, tracker, updates, n_sweeps, order):
    """ALS-style sweeps: MTTKRP every mode, then install the scripted update.

    Returns (per-sweep seconds, per-sweep tracked flops, first-sweep MTTKRPs).
    """
    times, flops, first_outputs = [], [], []
    for sweep in range(n_sweeps):
        flops_before = tracker.total_flops
        start = time.perf_counter()
        for mode in range(order):
            out = provider.mttkrp(mode)
            if sweep == 0:
                first_outputs.append(out.copy())
            provider.set_factor(mode, updates[(sweep, mode)])
        times.append(time.perf_counter() - start)
        flops.append(tracker.total_flops - flops_before)
    return times, flops, first_outputs


def test_sparse_sweep_engines(report):
    """Sweep-level recompute-vs-tree, sparse-vs-dense comparison (ISSUE 3)."""
    shape = (20, 20, 20) if _TINY else (200, 200, 200)
    rank = 4 if _TINY else 16
    order = len(shape)
    n_sweeps = _WARMUP_SWEEPS + _TIMED_SWEEPS

    coo = sparse_low_rank_tensor(shape, rank=rank, density=_SWEEP_DENSITY,
                                 noise=0.1, seed=7)
    rng = np.random.default_rng(0)
    base = [rng.random((s, rank)) for s in shape]
    updates = {(sweep, mode): rng.random((shape[mode], rank))
               for sweep in range(n_sweeps) for mode in range(order)}
    dense = coo.to_dense()

    results = {}
    for label, engine, tensor in (
        ("sparse recompute", "naive", coo),
        ("sparse dt", "dt", coo),
        ("sparse msdt", "msdt", coo),
        ("dense dt", "dt", dense),
    ):
        tracker = CostTracker()
        provider = make_provider(engine, tensor, [f.copy() for f in base],
                                 tracker=tracker)
        results[label] = _run_sweeps(provider, tracker, updates, n_sweeps, order)

    # parity: every engine's first sweep against the dense einsum oracle
    factors = [f.copy() for f in base]
    for mode in range(order):
        expected = mttkrp(dense, factors, mode)
        scale = max(float(np.abs(expected).max()), 1.0)
        for label, (_, _, outputs) in results.items():
            err = float(np.abs(outputs[mode] - expected).max())
            assert err <= 1e-10 * scale, (
                f"{label} diverged from the dense oracle at mode {mode}: "
                f"max|diff|={err:.2e}"
            )
        factors[mode] = updates[(0, mode)]

    def steady(label):
        times, flops, _ = results[label]
        return (min(times[_WARMUP_SWEEPS:]),
                int(np.mean(flops[_WARMUP_SWEEPS:])))

    lines = [
        f"Sweep-level MTTKRP engines, shape={shape}, rank={rank}, "
        f"density={_SWEEP_DENSITY} (nnz={coo.nnz}); steady-state sweep "
        f"(best of {_TIMED_SWEEPS} after {_WARMUP_SWEEPS} warmup)",
        f"{'engine':>17s} {'sweep (s)':>10s} {'tracked flops':>14s}",
    ]
    for label in results:
        t, f = steady(label)
        lines.append(f"{label:>17s} {t:10.4f} {f:14d}")

    recompute_t, recompute_f = steady("sparse recompute")
    dt_t, dt_f = steady("sparse dt")
    msdt_t, msdt_f = steady("sparse msdt")
    # the dimension tree tracks fewer flops than recompute at ANY size (the
    # amortization is structural), so assert it in the tiny CI run as well
    assert dt_f < recompute_f, (dt_f, recompute_f)
    assert msdt_f <= dt_f, (msdt_f, dt_f)
    if not _TINY:
        # acceptance: on 200^3 at <= 1% density the sparse dimension tree
        # beats the recompute engine in wall-clock per steady-state sweep
        assert dt_t < recompute_t, (dt_t, recompute_t)
        assert msdt_t < recompute_t, (msdt_t, recompute_t)
        lines.append(
            "acceptance: sparse dt/msdt track fewer flops and run faster per "
            "steady-state sweep than sparse recompute, parity 1e-10 vs dense"
        )
    report("sparse_sweep_engines", "\n".join(lines))


_PP_CASES = (
    # (label, shape, rank, density)
    [("order 3", (20, 20, 20), 4, 0.05), ("order 4", (8, 8, 8, 8), 3, 0.05)]
    if _TINY else
    [("order 3", (200, 200, 200), 16, 0.01), ("order 4", (40, 40, 40, 40), 16, 0.01)]
)


def _rebuild_pp_from_coo(coo, factors, tracker):
    """The pre-ISSUE-5 sparse PP checkpoint: one independent O(nnz R (N-2))
    gather/scatter pass over the raw COO nonzeros per mode pair, then each
    single operator as a dense contraction of a pair operator (tracked here so
    both variants account the full checkpoint, pairs and singles)."""
    from repro.contract import default_engine

    order = coo.ndim
    eng = default_engine()
    pairs = {
        (i, j): sparse_partial_mttkrp(coo, factors, (i, j), tracker=tracker)
        for i in range(order) for j in range(i + 1, order)
    }
    for n in range(order):
        if n < order - 1:
            pair, other, spec = pairs[(n, n + 1)], n + 1, "abr,br->ar"
        else:
            pair, other, spec = pairs[(n - 1, n)], n - 1, "abr,ar->br"
        eng.contract(spec, pair, factors[other])
        tracker.add_flops("mttv", 2 * pair.size)
    return pairs


def test_sparse_pp_checkpoint(report):
    """PP checkpoint setup: semi-sparse tree descents vs per-pair COO rebuild.

    Builds the full pairwise-operator set at a factor checkpoint three ways —
    per-pair rebuild from raw COO (the old sparse path), semi-sparse descents
    standalone, and semi-sparse descents sharing a warmed MSDT provider cache
    (the ``pp_cp_als`` configuration) — and compares tracked flops and
    wall-clock, with every operator checked against the dense oracle.
    """
    lines = [
        "Sparse PP checkpoint setup: semi-sparse CSF descents vs per-pair COO "
        f"rebuild (best of {_REPEATS})",
        f"{'case':>8s} {'nnz':>8s} {'variant':>16s} {'flops':>12s} "
        f"{'build (s)':>10s} {'vs rebuild':>11s}",
    ]
    for label, shape, rank, density in _PP_CASES:
        order = len(shape)
        coo = sparse_low_rank_tensor(shape, rank=rank, density=density,
                                     noise=0.1, seed=7)
        rng = np.random.default_rng(0)
        factors = [rng.random((s, rank)) for s in shape]

        def build_shared():
            # the pp_cp_als configuration: the checkpoint is taken right after
            # an exact MSDT sweep, so the provider's structural caches and
            # still-valid intermediates exist already — only the operator
            # build itself is the checkpoint cost being measured
            tracker = CostTracker()
            provider = make_provider("msdt", coo, [f.copy() for f in factors],
                                     tracker=tracker)
            for mode in range(order):
                provider.mttkrp(mode)
            before = tracker.total_flops
            start = time.perf_counter()
            ops = PairwiseOperators.build(coo, provider.factors,
                                          tracker=tracker, provider=provider)
            elapsed = time.perf_counter() - start
            return ops, tracker.total_flops - before, elapsed

        def build_standalone():
            # cold checkpoint: includes building the CSF layouts from scratch
            tracker = CostTracker()
            start = time.perf_counter()
            ops = PairwiseOperators.build(coo, [f.copy() for f in factors],
                                          tracker=tracker)
            elapsed = time.perf_counter() - start
            return ops, tracker.total_flops, elapsed

        def build_rebuild():
            tracker = CostTracker()
            start = time.perf_counter()
            pairs = _rebuild_pp_from_coo(coo, factors, tracker)
            elapsed = time.perf_counter() - start
            return pairs, tracker.total_flops, elapsed

        variants = {}
        for name, fn in (("coo rebuild", build_rebuild),
                         ("semi-sparse", build_standalone),
                         ("semi-sparse+dt", build_shared)):
            best = float("inf")
            for _ in range(_REPEATS):
                result, flops, elapsed = fn()
                best = min(best, elapsed)
            variants[name] = (result, flops, best)

        # parity: every variant's pair operators against the dense oracle
        dense = coo.to_dense()
        for i in range(order):
            for j in range(i + 1, order):
                expected = partial_mttkrp(dense, factors, [i, j])
                scale = max(float(np.abs(expected).max()), 1.0)
                for name, (result, _, _) in variants.items():
                    got = (result if isinstance(result, dict)
                           else result.pairs())[i, j]
                    err = float(np.abs(np.asarray(got) - expected).max())
                    assert err <= 1e-10 * scale, (
                        f"{label} {name} pair {(i, j)} diverged from the dense "
                        f"oracle: max|diff|={err:.2e}"
                    )

        rebuild_f = variants["coo rebuild"][1]
        for name, (_, flops, secs) in variants.items():
            lines.append(
                f"{label:>8s} {coo.nnz:8d} {name:>16s} {flops:12d} {secs:10.4f} "
                f"{rebuild_f / flops:10.2f}x"
            )

        # the tree amortization is structural: the semi-sparse checkpoint
        # tracks fewer flops than the per-pair rebuild at ANY size, and the
        # warmed provider cache only improves it (assert in tiny CI runs too)
        standalone_f = variants["semi-sparse"][1]
        shared_f = variants["semi-sparse+dt"][1]
        assert standalone_f < rebuild_f, (label, standalone_f, rebuild_f)
        assert shared_f <= standalone_f, (label, shared_f, standalone_f)

    lines.append(
        "acceptance: semi-sparse PP checkpoints track fewer flops than the "
        "per-pair COO rebuild (sharing a warmed DT/MSDT cache strictly helps), "
        "operator parity 1e-10 vs the dense oracle"
    )
    report("sparse_pp_checkpoint", "\n".join(lines))
