"""Quickstart: CP decomposition of a synthetic tensor with every engine.

Run with ``python examples/quickstart.py``.  It builds a small exactly
low-rank tensor, decomposes it with the naive, dimension-tree and multi-sweep
dimension-tree engines plus pairwise perturbation, and prints the fitness and
the per-kernel flop counts so the cost advantage of MSDT/PP is visible even on
a laptop.
"""

from __future__ import annotations

from repro import cp_als, pp_cp_als, random_cp_tensor
from repro.core.options import ALSOptions, PPOptions


def main() -> None:
    shape, rank = (60, 60, 60), 12
    tensor = random_cp_tensor(shape, rank, seed=0).full()
    print(f"Decomposing a {shape} tensor of exact CP rank {rank}\n")

    header = f"{'method':12s} {'fitness':>9s} {'sweeps':>7s} {'time (s)':>9s} " \
             f"{'TTM Gflop':>10s} {'mTTV Gflop':>11s}"
    print(header)
    print("-" * len(header))

    for engine in ("naive", "dt", "msdt"):
        result = cp_als(tensor,
                        ALSOptions(rank=rank, n_sweeps=40, tol=1e-8, mttkrp=engine,
                                   seed=1))
        flops = result.tracker.flops_by_category
        print(f"{engine:12s} {result.fitness:9.5f} {result.n_sweeps:7d} "
              f"{result.elapsed_seconds:9.3f} {flops.get('ttm', 0) / 1e9:10.3f} "
              f"{flops.get('mttv', 0) / 1e9:11.3f}")

    pp = pp_cp_als(tensor,
                   PPOptions(rank=rank, n_sweeps=120, tol=1e-8, pp_tol=0.2, seed=1))
    flops = pp.tracker.flops_by_category
    print(f"{'pp':12s} {pp.fitness:9.5f} {pp.n_sweeps:7d} "
          f"{pp.elapsed_seconds:9.3f} {flops.get('ttm', 0) / 1e9:10.3f} "
          f"{flops.get('mttv', 0) / 1e9:11.3f}")
    summary = pp.sweep_type_summary()
    print("\nPairwise-perturbation sweep mix:")
    for sweep_type, stats in summary.items():
        print(f"  {sweep_type:10s} count={stats['count']:3d}  "
              f"mean time={stats['mean_seconds'] * 1e3:7.2f} ms")


if __name__ == "__main__":
    main()
