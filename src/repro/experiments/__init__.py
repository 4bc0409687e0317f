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

from repro.experiments.table1 import table1_rows, measured_mttkrp_flops_per_sweep
from repro.experiments.weak_scaling import (
    modeled_weak_scaling,
    executed_weak_scaling,
    WeakScalingPoint,
)
from repro.experiments.breakdown import modeled_breakdown, executed_breakdown
from repro.experiments.pp_vs_ref import pp_vs_reference_table
from repro.experiments.collinearity_speedup import (
    collinearity_speedup_study,
    CollinearityBinResult,
)
from repro.experiments.fitness_curves import fitness_curve_comparison, FitnessCurves
from repro.experiments.reporting import format_table, format_breakdown

__all__ = [
    "table1_rows",
    "measured_mttkrp_flops_per_sweep",
    "modeled_weak_scaling",
    "executed_weak_scaling",
    "WeakScalingPoint",
    "modeled_breakdown",
    "executed_breakdown",
    "pp_vs_reference_table",
    "collinearity_speedup_study",
    "CollinearityBinResult",
    "fitness_curve_comparison",
    "FitnessCurves",
    "format_table",
    "format_breakdown",
]
