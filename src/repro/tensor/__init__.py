"""Dense tensor algebra substrate.

Everything the CP-ALS / MSDT / pairwise-perturbation algorithms need from a
tensor library is implemented here on top of ``numpy``:

* matricization and generalized unfoldings (:mod:`repro.tensor.unfold`),
* Khatri-Rao / Kronecker / Hadamard products (:mod:`repro.tensor.products`),
* tensor-times-matrix and (batched) tensor-times-vector kernels
  (:mod:`repro.tensor.ttm`, :mod:`repro.tensor.ttv`) and the memory layout of
  the rank-carrying intermediates they exchange
  (:mod:`repro.tensor.intermediate`),
* MTTKRP and partially-contracted MTTKRP intermediates
  (:mod:`repro.tensor.mttkrp`),
* norms, inner products, residual and fitness (:mod:`repro.tensor.norms`),
* the Kruskal (CP) tensor format (:mod:`repro.tensor.cp_format`).

All kernels optionally record their arithmetic cost into a
:class:`repro.machine.cost_tracker.CostTracker` via the ``tracker`` /
``category`` keyword arguments, which is how the per-kernel breakdowns of the
paper's Figure 3c-f are produced.
"""
