"""Compressing a density-fitting tensor with PP-CP-ALS (the paper's chemistry use case).

The paper's motivating application in scientific computing is compressing the
order-3 density-fitting (Cholesky) factor of the two-electron integral tensor;
a CP decomposition of that factor accelerates post-Hartree-Fock methods.  This
example builds the synthetic density-fitting surrogate, decomposes it at
several ranks with both exact ALS (MSDT) and pairwise perturbation, and
reports the compression ratio and time-to-fitness — the container-scale analogue
of Figures 5b-5d.

Run with ``python examples/quantum_chemistry_compression.py``.
"""

from __future__ import annotations

import numpy as np

from repro import cp_als, pp_cp_als
from repro.core.initialization import init_factors
from repro.core.options import ALSOptions, PPOptions
from repro.data.quantum_chemistry import density_fitting_tensor


def main() -> None:
    tensor = density_fitting_tensor(n_aux=140, n_orb=28, seed=0)
    n_entries = tensor.size
    print(f"Density-fitting surrogate of shape {tensor.shape} "
          f"({n_entries:,} entries, {tensor.nbytes / 1e6:.1f} MB)\n")

    for rank in (8, 16, 24):
        initial = init_factors(tensor.shape, rank, seed=1)
        exact = cp_als(tensor,
                       ALSOptions(rank=rank, n_sweeps=60, tol=1e-5, mttkrp="msdt"),
                       initial_factors=initial)
        pp = pp_cp_als(tensor, PPOptions(rank=rank, n_sweeps=120, tol=1e-5, pp_tol=0.1),
                       initial_factors=initial)
        compressed = sum(s * rank for s in tensor.shape)
        ratio = n_entries / compressed
        speedup = exact.elapsed_seconds / pp.elapsed_seconds if pp.elapsed_seconds else 0
        print(f"rank {rank:3d}: compression {ratio:6.1f}x   "
              f"fitness exact={exact.fitness:.4f} pp={pp.fitness:.4f}   "
              f"time exact={exact.elapsed_seconds:.2f}s pp={pp.elapsed_seconds:.2f}s "
              f"(speed-up {speedup:.2f}x)")
        mix = pp.sweep_type_summary()
        print(f"           PP sweep mix: {mix['als']['count']} exact, "
              f"{mix['pp-init']['count']} init, {mix['pp-approx']['count']} approximated")

    # sanity: the decomposition really reconstructs the tensor to the reported fitness
    result = cp_als(tensor, ALSOptions(rank=24, n_sweeps=40, tol=1e-5, seed=2))
    reconstruction = result.cp.full()
    rel_err = np.linalg.norm(tensor - reconstruction) / np.linalg.norm(tensor)
    print(f"\nreconstruction check at rank 24: relative error {rel_err:.4f} "
          f"(= 1 - fitness = {1 - result.fitness:.4f})")


if __name__ == "__main__":
    main()
