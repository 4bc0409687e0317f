"""Figure 4 and Table III — PP speed-up vs factor collinearity.

For each collinearity bin ``[a, b)`` and several random seeds, a synthetic
collinearity tensor is decomposed with (i) plain CP-ALS using the dimension
tree (or MSDT) and (ii) PP-CP-ALS, both stopping when the fitness change drops
below the tolerance or the sweep budget is exhausted.  The study reports

* the counted speed-up of PP over the baseline per seed — total flops of the
  baseline run over total flops of the PP run (the box plots of Fig. 4), and
* the PP sweep-type counts (exact ALS sweeps, PP initialization steps, PP
  approximated sweeps — the columns of Table III).

The paper uses 1600^3 tensors with rank 400 on 64 processors; the default
sizes here are container-friendly while keeping the qualitative behaviour
(intermediate collinearity needs many sweeps, which is where PP pays off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.cp_als import cp_als
from repro.core.options import ALSOptions, PPOptions
from repro.core.pp_cp_als import pp_cp_als
from repro.data.collinearity import collinearity_tensor

__all__ = ["CollinearityBinResult", "collinearity_speedup_study", "PAPER_COLLINEARITY_BINS"]

#: collinearity intervals of Fig. 4 / Table III
PAPER_COLLINEARITY_BINS: tuple[tuple[float, float], ...] = (
    (0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0),
)


@dataclass
class CollinearityBinResult:
    """Aggregated results of one collinearity bin."""

    collinearity_range: tuple[float, float]
    #: total flops of the baseline run over those of the PP run, per seed
    flop_speedups: list[float] = field(default_factory=list)
    #: sweep-type sequence of each PP run (``"als"`` / ``"pp-init"`` / ``"pp-approx"``)
    pp_sweep_types: list[list[str]] = field(default_factory=list)
    final_fitness_baseline: list[float] = field(default_factory=list)
    final_fitness_pp: list[float] = field(default_factory=list)

    def _mean_count(self, sweep_type: str) -> float:
        counts = [types.count(sweep_type) for types in self.pp_sweep_types]
        return float(np.mean(counts)) if counts else 0.0

    def table3_row(self) -> dict:
        """Mean sweep counts and the median counted speed-up — one row of Table III."""
        return {
            "collinearity": f"[{self.collinearity_range[0]:.1f}, {self.collinearity_range[1]:.1f})",
            "num_als": self._mean_count("als"),
            "num_pp_init": self._mean_count("pp-init"),
            "num_pp_approx": self._mean_count("pp-approx"),
            "flop_speedup": float(np.median(self.flop_speedups)),
        }


def _total_flops(result) -> int:
    return sum(sum(record.flops.values()) for record in result.sweeps)


def collinearity_speedup_study(
    mode_size: int = 50,
    rank: int = 20,
    bins: Sequence[tuple[float, float]] = PAPER_COLLINEARITY_BINS,
    n_seeds: int = 3,
    n_sweeps: int = 120,
    tol: float = 1.0e-5,
    pp_tol: float = 0.2,
    baseline_mttkrp: str = "dt",
    seed0: int = 0,
) -> list[CollinearityBinResult]:
    """Run the Fig. 4 / Table III study and return one result per collinearity bin.

    The PP tolerance defaults to 0.2 as in the paper's synthetic study.  The
    baseline is CP-ALS with the standard dimension tree (``baseline_mttkrp``
    can be set to ``"msdt"`` to reproduce the MSDT reference line of Fig. 4).
    """
    results = []
    for bin_index, interval in enumerate(bins):
        bin_result = CollinearityBinResult(collinearity_range=tuple(interval))
        for seed_index in range(n_seeds):
            seed = seed0 + 1000 * bin_index + seed_index
            generated = collinearity_tensor(
                (mode_size,) * 3, rank, collinearity_range=tuple(interval), seed=seed
            )
            tensor = generated.tensor
            init_seed = seed + 17

            baseline = cp_als(tensor, ALSOptions(
                rank=rank, n_sweeps=n_sweeps, tol=tol,
                mttkrp=baseline_mttkrp, seed=init_seed,
            ))
            pp = pp_cp_als(tensor, PPOptions(
                rank=rank, n_sweeps=n_sweeps, tol=tol, pp_tol=pp_tol,
                mttkrp="msdt", seed=init_seed,
            ))

            bin_result.flop_speedups.append(_total_flops(baseline) / _total_flops(pp))
            bin_result.pp_sweep_types.append([s.sweep_type for s in pp.sweeps])
            bin_result.final_fitness_baseline.append(baseline.fitness)
            bin_result.final_fitness_pp.append(pp.fitness)
        results.append(bin_result)
    return results
