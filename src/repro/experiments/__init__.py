"""Experiment drivers that regenerate every table and figure of the paper.

Each module corresponds to one evaluation artifact:

=================================  ====================================================
module                             paper artifact
=================================  ====================================================
:mod:`repro.experiments.table1`    Table I   — cost comparison of the MTTKRP kernels
:mod:`repro.experiments.weak_scaling`  Fig. 3a/3b — weak scaling of per-sweep time
:mod:`repro.experiments.breakdown`     Fig. 3c-f  — per-sweep kernel time breakdown
:mod:`repro.experiments.pp_vs_ref`     Table II  — our PP kernels vs the reference PP
:mod:`repro.experiments.collinearity_speedup`  Fig. 4 + Table III — PP speed-up vs collinearity
:mod:`repro.experiments.fitness_curves`        Fig. 5 + Table IV  — fitness vs time on datasets
=================================  ====================================================

All drivers accept explicit problem sizes so the benchmark harness can run
them at container scale while :mod:`repro.costs` evaluates the same quantities
at the paper's scale (``docs/architecture.rst``, "Evaluation layer").
"""
