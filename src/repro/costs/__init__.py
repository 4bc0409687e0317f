"""Analytic cost models reproducing Table I of the paper.

:mod:`repro.costs.mttkrp_costs` implements every row of Table I (DT, MSDT,
PP-init, PP-init-ref, PP-approx, PP-approx-ref): leading-order sequential and
local flops, auxiliary memory, and horizontal / vertical communication for the
per-sweep MTTKRP computation.  :mod:`repro.costs.sweep_model` composes them
with the Gram/Hadamard/solve terms into modeled per-sweep times, which is how
the paper-scale curves of Figure 3 and the Table II comparison are generated.
"""
