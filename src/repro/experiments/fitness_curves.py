"""Figure 5 and Table IV — fitness-versus-time comparison on application tensors.

For a given tensor the driver runs DT-based CP-ALS, MSDT-based CP-ALS and
PP-CP-ALS from the same initialization and records the fitness trajectory of
each (the curves of Fig. 5a-5f).  The per-run sweep statistics — number of
exact / PP-init / PP-approx sweeps and their mean per-sweep times — reproduce
the columns of Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cp_als import cp_als
from repro.core.initialization import init_factors
from repro.core.options import ALSOptions, PPOptions
from repro.core.pp_cp_als import pp_cp_als
from repro.core.results import ALSResult

__all__ = ["FitnessCurves", "fitness_curve_comparison"]


@dataclass
class FitnessCurves:
    """Results of one Fig. 5 panel: the three runs plus derived statistics."""

    label: str
    dt: ALSResult
    msdt: ALSResult
    pp: ALSResult

    def curves(self) -> dict[str, list[tuple[float, float]]]:
        """(time, fitness) series per method — the plotted curves."""
        return {
            "dt": self.dt.fitness_history(),
            "msdt": self.msdt.fitness_history(),
            "pp": self.pp.fitness_history(),
        }

    def table4_row(self) -> dict:
        """One row of Table IV (sweep counts and mean per-sweep times of the PP run)."""
        return {
            "tensor": self.label,
            "n_als": self.pp.count_sweeps("als"),
            "n_pp_init": self.pp.count_sweeps("pp-init"),
            "n_pp_approx": self.pp.count_sweeps("pp-approx"),
            "t_als": self.pp.mean_sweep_seconds("als"),
            "t_pp_init": self.pp.mean_sweep_seconds("pp-init"),
            "t_pp_approx": self.pp.mean_sweep_seconds("pp-approx"),
        }

    def time_to_fitness(self, target: float) -> dict[str, float]:
        """Seconds each method needs to first reach ``target`` fitness (inf if never)."""
        out = {}
        for name, result in (("dt", self.dt), ("msdt", self.msdt), ("pp", self.pp)):
            seconds = float("inf")
            for record in result.sweeps:
                if record.fitness >= target:
                    seconds = record.cumulative_seconds
                    break
            out[name] = seconds
        return out

    def pp_speedup_to_common_fitness(self, margin: float = 0.0) -> float:
        """Speed-up of PP over DT to the highest fitness both reach.

        The target is the minimum of the two final fitness values minus
        ``margin``; this mirrors how the paper reports 1.52-5.4x speed-ups on
        the application tensors.
        """
        target = min(self.dt.fitness, self.pp.fitness) - margin
        times = self.time_to_fitness(target)
        if not np.isfinite(times["pp"]) or times["pp"] <= 0:
            return 0.0
        if not np.isfinite(times["dt"]):
            return float("inf")
        return times["dt"] / times["pp"]


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
    initial = init_factors(tensor.shape, rank, seed=seed, method="uniform")
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
