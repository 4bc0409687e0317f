"""Experiment drivers that regenerate every table and figure of the paper.

Each module corresponds to one evaluation artifact:

=============================================  =============================================================
module                                         paper artifact
=============================================  =============================================================
:mod:`repro.experiments.table1`                Table I    — cost comparison of the MTTKRP kernels
:mod:`repro.experiments.weak_scaling`          Fig. 3a-f  — weak scaling of per-sweep time and its breakdown
:mod:`repro.experiments.pp_vs_ref`             Table II   — our PP kernels vs the reference PP
:mod:`repro.experiments.collinearity_speedup`  Fig. 4 + Table III — PP flop speed-up and sweep counts
:mod:`repro.experiments.fitness_curves`        Fig. 5 + Table IV  — fitness vs flops on datasets
=============================================  =============================================================

Every number a driver reports is modeled or counted: per-sweep seconds come
from the alpha-beta-gamma-nu model, speed-ups and curves from the flops each
sweep records.  The wall-clock versions of the paper's claims are measured by
the benchmark harness (``benchmarks/harness``, ``BENCHMARK.json``).  The one
exception is :func:`~repro.experiments.weak_scaling.measured_multiprocess_sweep`,
which times a real multi-process sweep to calibrate the model.

All drivers accept explicit problem sizes so the ``benchmarks/bench_*`` scripts
can run them at container scale while :mod:`repro.costs` evaluates the same quantities
at the paper's scale (``docs/architecture.rst``, "Evaluation layer").
"""
