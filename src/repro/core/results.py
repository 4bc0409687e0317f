"""Result containers for the ALS drivers.

Every sweep (exact ALS, PP initialization, or PP approximated) is recorded as
a :class:`SweepRecord`; the sequence of records is what the fitness-vs-time
figures (Fig. 5) and the sweep-count tables (Tables III and IV) are generated
from.

All result objects — :class:`ALSResult`, :class:`ParallelALSResult` and
:class:`~repro.core.multi_start.MultiStartResult` — share the
:class:`ResultBase` accessor surface (``fitness``, ``residual``,
``converged``, ``n_sweeps``, ``sweeps``, ``factors`` and the sweep-table
helpers), so consumers such as :mod:`repro.service` handle one shape
regardless of which driver produced the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.machine.cost_tracker import CostTracker
from repro.tensor.cp_format import CPTensor

__all__ = ["SweepRecord", "ResultBase", "ALSResult", "ParallelALSResult"]

#: canonical sweep-type labels
SWEEP_ALS = "als"
SWEEP_PP_INIT = "pp-init"
SWEEP_PP_APPROX = "pp-approx"


@dataclass
class SweepRecord:
    """Statistics of one sweep (or of one PP initialization step)."""

    index: int
    sweep_type: str
    fitness: float
    residual: float
    elapsed_seconds: float
    cumulative_seconds: float
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    flops: Dict[str, int] = field(default_factory=dict)
    modeled_seconds: float | None = None

    def asdict(self) -> dict:
        return {
            "index": self.index,
            "type": self.sweep_type,
            "fitness": self.fitness,
            "residual": self.residual,
            "elapsed_seconds": self.elapsed_seconds,
            "cumulative_seconds": self.cumulative_seconds,
            "kernel_seconds": dict(self.kernel_seconds),
            "flops": dict(self.flops),
            "modeled_seconds": self.modeled_seconds,
        }


class ResultBase:
    """Shared accessor surface of every decomposition result.

    Subclasses provide (as fields or properties) ``factors``, ``fitness``,
    ``residual``, ``converged``, ``n_sweeps`` and ``sweeps`` (a list of
    :class:`SweepRecord`); the helpers below are derived from those alone.
    For a best-of-K :class:`~repro.core.multi_start.MultiStartResult` the
    attributes refer to the best start, so service consumers can treat any
    result uniformly.
    """

    factors: List[np.ndarray]
    fitness: float
    residual: float
    converged: bool
    n_sweeps: int
    sweeps: List[SweepRecord]

    @staticmethod
    def fitness_from_residual(residual: float) -> float:
        """Fitness ``f = 1 - r`` with guarded edge cases — the one conversion
        every driver uses.

        A tiny negative residual (rounding noise at an exact or
        better-than-exact fit, e.g. zero-residual initial factors) clamps to
        fitness exactly ``1.0`` instead of leaking ``1 + eps``; a non-finite
        residual maps to ``nan`` rather than propagating ``-inf`` arithmetic.

        >>> ResultBase.fitness_from_residual(0.25)
        0.75
        >>> ResultBase.fitness_from_residual(-1e-16)
        1.0
        >>> ResultBase.fitness_from_residual(float("inf"))
        nan
        """
        residual = float(residual)
        if not np.isfinite(residual):
            return float("nan")
        if residual < 0.0:
            return 1.0
        return 1.0 - residual

    @property
    def cp(self) -> CPTensor:
        """The decomposition as a :class:`~repro.tensor.cp_format.CPTensor`."""
        return CPTensor([f.copy() for f in self.factors])

    def count_sweeps(self, sweep_type: str) -> int:
        """Number of recorded sweeps of ``sweep_type`` ('als', 'pp-init', 'pp-approx')."""
        return sum(1 for s in self.sweeps if s.sweep_type == sweep_type)

    def mean_sweep_seconds(self, sweep_type: str) -> float:
        """Mean wall-clock seconds of sweeps of the given type (0.0 when absent)."""
        times = [s.elapsed_seconds for s in self.sweeps if s.sweep_type == sweep_type]
        return float(np.mean(times)) if times else 0.0

    def fitness_history(self) -> list[tuple[float, float]]:
        """(cumulative time, fitness) pairs — the series plotted in Fig. 5."""
        return [(s.cumulative_seconds, s.fitness) for s in self.sweeps]

    def sweep_type_summary(self) -> dict:
        """Counts and mean times per sweep type (the columns of Tables III/IV)."""
        summary = {}
        for sweep_type in (SWEEP_ALS, SWEEP_PP_INIT, SWEEP_PP_APPROX):
            summary[sweep_type] = {
                "count": self.count_sweeps(sweep_type),
                "mean_seconds": self.mean_sweep_seconds(sweep_type),
            }
        return summary


@dataclass
class ALSResult(ResultBase):
    """Outcome of a sequential CP-ALS / PP-CP-ALS run."""

    factors: List[np.ndarray]
    fitness: float
    residual: float
    n_sweeps: int
    converged: bool
    sweeps: List[SweepRecord] = field(default_factory=list)
    tracker: CostTracker | None = None
    elapsed_seconds: float = 0.0
    options: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ALSResult(fitness={self.fitness:.4f}, sweeps={self.n_sweeps}, "
            f"converged={self.converged})"
        )


@dataclass
class ParallelALSResult(ALSResult):
    """Outcome of a parallel run; adds modeled per-sweep times and grid info."""

    grid_dims: Sequence[int] = ()
    per_sweep_modeled_seconds: List[float] = field(default_factory=list)
    critical_path: CostTracker | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelALSResult(grid={tuple(self.grid_dims)}, fitness={self.fitness:.4f}, "
            f"sweeps={self.n_sweeps})"
        )
