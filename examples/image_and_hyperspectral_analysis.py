"""Decomposing image and hyperspectral tensors (the paper's Figures 5e / 5f workloads).

Builds the COIL-like rotating-objects tensor and the time-lapse hyperspectral
surrogate, runs DT / MSDT / PP from a shared initialization and prints the
fitness-versus-work trajectories (cumulative counted flops) plus the mean
flops per sweep type of the PP run — the qualitative content of the paper's
Figures 5e and 5f.

Run with ``python examples/image_and_hyperspectral_analysis.py``.
"""

from __future__ import annotations

from repro.data.coil import coil_like_tensor
from repro.data.hyperspectral import hyperspectral_tensor
from repro.experiments.fitness_curves import fitness_curve_comparison


def _show(label: str, curves) -> None:
    print(f"\n=== {label} ===")
    for method, series in curves.curves().items():
        trajectory = "  ".join(f"{w / 1e6:7.1f}M:{f:.3f}"
                               for w, f in series[:: max(len(series) // 6, 1)])
        print(f"  {method:5s} final fitness {series[-1][1]:.4f} after "
              f"{series[-1][0] / 1e6:.1f} Mflop   [{trajectory}]")
    row = curves.table4_row()
    print(f"  PP sweep mix: {row['n_als']} exact / {row['n_pp_init']} init / "
          f"{row['n_pp_approx']} approximated; mean flops per sweep "
          f"{row['flops_als'] / 1e6:.2f} / {row['flops_pp_init'] / 1e6:.2f} / "
          f"{row['flops_pp_approx'] / 1e6:.2f} M")


def main() -> None:
    coil = coil_like_tensor(24, 24, 3, n_objects=8, n_poses=18, seed=0)
    print(f"COIL surrogate: shape {coil.shape}")
    _show("COIL-like image tensor, R=12",
          fitness_curve_comparison(coil, 12, "coil", n_sweeps=60, tol=1e-5,
                                   pp_tol=0.1, seed=1))

    cube = hyperspectral_tensor(40, 44, 14, 8, n_materials=8, seed=2)
    print(f"\nHyperspectral surrogate: shape {cube.shape}")
    _show("Time-lapse hyperspectral tensor, R=12",
          fitness_curve_comparison(cube, 12, "hyperspectral", n_sweeps=60, tol=1e-5,
                                   pp_tol=0.1, seed=3))


if __name__ == "__main__":
    main()
