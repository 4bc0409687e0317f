"""Figure 5 and Table IV — fitness against work on application tensors.

For a given tensor the driver runs DT-based CP-ALS, MSDT-based CP-ALS and
PP-CP-ALS from the same initialization and records the fitness trajectory of
each against its cumulative counted flops (the curves of Fig. 5a-5f).  The
per-run sweep statistics — number of exact / PP-init / PP-approx sweeps and
their mean flops per sweep — reproduce the columns of Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.core.cp_als import cp_als
from repro.core.initialization import init_factors
from repro.core.options import ALSOptions, PPOptions
from repro.core.pp_cp_als import pp_cp_als
from repro.core.results import ALSResult

__all__ = ["FitnessCurves", "fitness_curve_comparison"]


def _sweep_flops(record) -> int:
    return sum(record.flops.values())


@dataclass
class FitnessCurves:
    """Results of one Fig. 5 panel: the three runs plus derived statistics."""

    label: str
    dt: ALSResult
    msdt: ALSResult
    pp: ALSResult

    def curves(self) -> dict[str, list[tuple[int, float]]]:
        """(cumulative flops, fitness) series per method — the plotted curves."""
        out = {}
        for name, result in (("dt", self.dt), ("msdt", self.msdt), ("pp", self.pp)):
            work = accumulate(_sweep_flops(record) for record in result.sweeps)
            out[name] = [(flops, record.fitness) for flops, record in zip(work, result.sweeps)]
        return out

    def _mean_flops(self, sweep_type: str) -> float:
        counts = [_sweep_flops(s) for s in self.pp.sweeps if s.sweep_type == sweep_type]
        return float(np.mean(counts)) if counts else 0.0

    def table4_row(self) -> dict:
        """One row of Table IV (sweep counts and mean flops per sweep of the PP run)."""
        return {
            "tensor": self.label,
            "n_als": self.pp.count_sweeps("als"),
            "n_pp_init": self.pp.count_sweeps("pp-init"),
            "n_pp_approx": self.pp.count_sweeps("pp-approx"),
            "flops_als": self._mean_flops("als"),
            "flops_pp_init": self._mean_flops("pp-init"),
            "flops_pp_approx": self._mean_flops("pp-approx"),
        }


def fitness_curve_comparison(
    tensor: np.ndarray,
    rank: int,
    label: str,
    n_sweeps: int = 100,
    tol: float = 1.0e-5,
    pp_tol: float = 0.1,
    seed: int = 0,
) -> FitnessCurves:
    """Run DT, MSDT and PP from a shared initialization on one tensor (one Fig. 5 panel)."""
    tensor = np.asarray(tensor, dtype=np.float64)
    initial = init_factors(tensor.shape, rank, seed=seed)
    dt_result = cp_als(
        tensor, ALSOptions(rank=rank, n_sweeps=n_sweeps, tol=tol, mttkrp="dt"),
        initial_factors=initial,
    )
    msdt_result = cp_als(
        tensor, ALSOptions(rank=rank, n_sweeps=n_sweeps, tol=tol, mttkrp="msdt"),
        initial_factors=initial,
    )
    pp_result = pp_cp_als(
        tensor, PPOptions(rank=rank, n_sweeps=n_sweeps, tol=tol, pp_tol=pp_tol,
                          mttkrp="msdt"),
        initial_factors=initial,
    )
    return FitnessCurves(label=label, dt=dt_result, msdt=msdt_result, pp=pp_result)
