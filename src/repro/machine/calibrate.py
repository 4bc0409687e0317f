"""Fit the process-hop terms of :class:`~repro.machine.params.MachineParams`.

The pure alpha-beta-gamma-nu model prices the paper's *network*; it knows
nothing about the cost of crossing a ``multiprocessing`` queue or publishing a
factor panel through shared memory, which is why the first real measurement of
``execution="process"`` sweeps came out ~54x over the model at tiny per-rank
sizes (what :attr:`CalibrationResult.max_ratio_before` reports).  This module
closes that gap: run a small grid of
:func:`~repro.experiments.weak_scaling.measured_multiprocess_sweep` points,
regress the measured-minus-modeled residual on the per-sweep hop counts of
:func:`~repro.machine.collective_costs.process_hop_cost`, and return machine
parameters whose ``alpha_hop`` / ``beta_hop`` absorb the IPC overhead.

The fit is an exact two-variable non-negative least squares: the optimum of
``min ||A x - y||`` over ``x >= 0`` in two dimensions is either the
unconstrained least-squares solution, a one-variable fit with the other
clamped at zero, or the origin — so all candidates are enumerated and the
feasible one with the smallest residual wins (no iterative solver needed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.machine.params import MachineParams

__all__ = [
    "HopObservation",
    "CalibrationResult",
    "fit_hop_params",
    "calibrate_machine_params",
]


@dataclass(frozen=True)
class HopObservation:
    """One measured sweep next to its zero-hop modeled baseline.

    Attributes
    ----------
    measured_seconds:
        Mean measured wall-clock of one sweep.
    base_seconds:
        The model's prediction for the same sweep with
        ``alpha_hop = beta_hop = 0`` (the pure BSP terms).
    hop_messages, hop_words:
        Per-sweep process-hop counts from
        :func:`~repro.machine.collective_costs.process_hop_cost`.
    label:
        Free-form description of the point (e.g. ``"1x2x2 nnz=4000"``).
    """

    measured_seconds: float
    base_seconds: float
    hop_messages: float
    hop_words: float
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("measured_seconds", "base_seconds", "hop_messages", "hop_words"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted parameters plus the before/after measured-over-modeled spread."""

    params: MachineParams
    observations: tuple[HopObservation, ...]
    max_ratio_before: float
    max_ratio_after: float

    def asdict(self) -> dict:
        """Flat JSON-ready summary (fitted rates, point count, max ratios)."""
        return {
            "alpha_hop": self.params.alpha_hop,
            "beta_hop": self.params.beta_hop,
            "n_observations": len(self.observations),
            "max_ratio_before": self.max_ratio_before,
            "max_ratio_after": self.max_ratio_after,
        }


def _modeled_with_hops(obs: HopObservation, params: MachineParams) -> float:
    return (
        obs.base_seconds
        + params.alpha_hop * obs.hop_messages
        + params.beta_hop * obs.hop_words
    )


def _max_ratio(observations: Sequence[HopObservation], params: MachineParams) -> float:
    ratios = []
    for obs in observations:
        modeled = _modeled_with_hops(obs, params)
        if modeled > 0:
            ratios.append(obs.measured_seconds / modeled)
    return float(max(ratios)) if ratios else 0.0


def fit_hop_params(
    observations: Sequence[HopObservation],
    base: MachineParams | None = None,
) -> MachineParams:
    """Non-negative least-squares fit of ``(alpha_hop, beta_hop)``.

    Minimizes ``sum_i (base_i + a m_i + b w_i - measured_i)^2`` over
    ``a, b >= 0`` exactly by candidate enumeration (see module docstring) and
    returns ``base`` with the fitted hop rates substituted.

    Example
    -------
    >>> from repro.machine.params import MachineParams
    >>> obs = [
    ...     HopObservation(measured_seconds=0.1 + 2e-4 * m, base_seconds=0.1,
    ...                    hop_messages=m, hop_words=0.0)
    ...     for m in (10.0, 40.0, 160.0)
    ... ]
    >>> fitted = fit_hop_params(obs, MachineParams.container_like())
    >>> round(fitted.alpha_hop, 10)
    0.0002
    """
    obs = list(observations)
    if not obs:
        raise ValueError("at least one observation is required")
    if base is None:
        base = MachineParams.container_like()

    matrix = np.array([[o.hop_messages, o.hop_words] for o in obs], dtype=float)
    residual = np.array([o.measured_seconds - o.base_seconds for o in obs], dtype=float)

    candidates: list[tuple[float, float]] = [(0.0, 0.0)]
    solution, *_ = np.linalg.lstsq(matrix, residual, rcond=None)
    candidates.append((float(solution[0]), float(solution[1])))
    for j, shape in ((0, lambda c: (c, 0.0)), (1, lambda c: (0.0, c))):
        column = matrix[:, j]
        denom = float(column @ column)
        if denom > 0:
            candidates.append(shape(float(column @ residual) / denom))

    def sse(a: float, b: float) -> float:
        error = matrix @ np.array([a, b]) - residual
        return float(error @ error)

    alpha_hop, beta_hop = min(
        ((a, b) for a, b in candidates if a >= 0.0 and b >= 0.0),
        key=lambda ab: sse(*ab),
    )
    return dataclasses.replace(base, alpha_hop=alpha_hop, beta_hop=beta_hop)


def calibrate_machine_params(
    rank: int = 8,
    grids: Sequence[Sequence[int]] = ((1, 1, 1), (1, 1, 2), (1, 2, 2)),
    sizes: Sequence[tuple[int, int]] = ((2000, 16), (4000, 24)),
    n_sweeps: int = 3,
    seed: int = 0,
    alpha: float = 1.1,
    partitioner: str = "joint",
    base_params: MachineParams | None = None,
    method: str = "dt",
) -> CalibrationResult:
    """Measure a small sweep grid and fit the hop terms from it.

    Runs :func:`~repro.experiments.weak_scaling.measured_multiprocess_sweep`
    for every ``grid`` x ``(nnz_local, s_local)`` combination (the default
    covers P in {1, 2, 4} at two sizes, the issue's calibration grid), builds
    one :class:`HopObservation` per point, and returns the
    :class:`CalibrationResult` with fitted parameters and the worst
    measured-over-modeled ratio before and after the fit.

    Spawns real worker processes — expect seconds, not microseconds; meant
    for benchmarks and examples, not the tier-1 suite.
    """
    # imported lazily: repro.experiments sits above repro.machine in the
    # layering and pulls in the full driver stack
    from repro.experiments.weak_scaling import measured_multiprocess_sweep

    base = base_params if base_params is not None else MachineParams.container_like()
    zero_hop = dataclasses.replace(base, alpha_hop=0.0, beta_hop=0.0)

    observations: list[HopObservation] = []
    for grid in grids:
        grid = tuple(int(d) for d in grid)
        for nnz_local, s_local in sizes:
            point = measured_multiprocess_sweep(
                nnz_local, s_local, rank, grid,
                n_sweeps=n_sweeps, seed=seed, alpha=alpha,
                partitioner=partitioner, params=zero_hop, method=method,
            )
            observations.append(
                HopObservation(
                    measured_seconds=point["measured_per_sweep_seconds"],
                    base_seconds=point["base_modeled_per_sweep_seconds"],
                    hop_messages=point["hop_messages"],
                    hop_words=point["hop_words"],
                    label=f"{point['grid']} nnz={point['nnz']}",
                )
            )

    fitted = fit_hop_params(observations, base)
    return CalibrationResult(
        params=fitted,
        observations=tuple(observations),
        max_ratio_before=_max_ratio(observations, zero_hop),
        max_ratio_after=_max_ratio(observations, fitted),
    )
