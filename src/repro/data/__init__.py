"""Synthetic workload generators mirroring the paper's evaluation tensors.

* :mod:`repro.data.collinearity` — the Section V-A.1 tensors with prescribed
  factor-column collinearity (exactly the paper's construction, scaled down).
* :mod:`repro.data.quantum_chemistry` — a synthetic density-fitting tensor
  (Cholesky factor of a two-electron-integral-like tensor) replacing the
  paper's PySCF-generated 40-water-chain intermediate.
* :mod:`repro.data.coil` — a synthetic rotating-objects image tensor replacing
  COIL-100.
* :mod:`repro.data.hyperspectral` — a synthetic time-lapse hyperspectral
  radiance cube replacing the "Souto wood pile" dataset.
* :mod:`repro.data.lowrank` — generic exact-low-rank (plus optional noise)
  tensors used throughout the test suite.
* :mod:`repro.data.sparse_synthetic` — sparse :class:`repro.sparse.CooTensor`
  workloads at controlled density (sampled low-rank signal, Poisson counts).

Every generator is deterministic given its ``seed`` and returns ``float64``
dense arrays.  Each module's docstring names the paper's dataset it stands in
for and the properties it keeps; ``docs/architecture.rst`` ("Evaluation
layer") places the generators among the experiment drivers.
"""

from repro.data.lowrank import random_low_rank_tensor
from repro.data.collinearity import collinearity_factors, collinearity_tensor
from repro.data.quantum_chemistry import density_fitting_tensor
from repro.data.coil import coil_like_tensor
from repro.data.hyperspectral import hyperspectral_tensor
from repro.data.sparse_synthetic import (
    sample_coordinates,
    sparse_count_tensor,
    sparse_low_rank_tensor,
)

__all__ = [
    "random_low_rank_tensor",
    "collinearity_factors",
    "collinearity_tensor",
    "density_fitting_tensor",
    "coil_like_tensor",
    "hyperspectral_tensor",
    "sample_coordinates",
    "sparse_count_tensor",
    "sparse_low_rank_tensor",
]
