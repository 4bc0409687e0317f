"""The one sweep loop every CP-ALS driver runs (Algorithms 1-4).

The paper's Algorithms 3 and 4 are Algorithms 1 and 2 on a processor grid:
the sweep is distributed, the control flow is the same.  :func:`run_sweeps`
is that control flow, written once:

* exact sweeps, stopped when two *exact* residuals one sweep apart differ by
  less than ``tol``;
* with ``pp=(pp_tol, max_pp_sweeps_per_phase)``, a PP phase whenever every
  factor step is small (``||dA^(i)||_F < pp_tol ||A^(i)||_F``): one
  ``pp-init``, then approximated sweeps until a step crosses ``pp_tol``
  (``pp_tol``), two approximated residuals stall (``stalled``), a sweep
  raises the residual by more than :data:`DIVERGENCE` (``diverged``, the sweep
  is rolled back), or a sweep bound ends it (``budget``);
* after a phase, one exact sweep judged against the exact residual of the
  factors it starts from (``docs/algorithms.rst``, "PP control loop");
* the :class:`~repro.core.results.SweepRecord` list, one ``DEBUG`` record per
  phase on logger ``repro.core`` (``pp phase: K approximated sweeps, ended by
  ...``; ``converged`` is a ``stalled`` phase whose exact sweep then stopped
  the run) and the callback.

What a sweep *is* belongs to the substrate the loop is handed, a
:class:`SweepRun`: :class:`SequentialRun` here (a provider, the Gram
matrices, a cost tracker and an update rule — ``cp_als``, ``nn_cp_als``,
``masked_cp_als`` and ``pp_cp_als``) or
:class:`~repro.core.parallel_common.ParallelRun` (a
:class:`~repro.core.parallel_common.ParallelState` — ``parallel_cp_als`` and
``parallel_pp_cp_als``).  With ``pp=None`` the loop copies no factors and
keeps no start residual.  :func:`solve_sequential` is the body of the four
sequential drivers, the twin of
:func:`~repro.core.parallel_common.solve_parallel`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.initialization import prepare_als_inputs
from repro.core.normal_equations import gamma_chain, gram_matrix
from repro.core.pp_corrections import (
    delta_gram,
    fused_approx_update,
    pp_step_within_tolerance,
)
from repro.core.options import NNOptions, PPOptions, check_options
from repro.core.results import ALSResult, ResultBase, SweepRecord
from repro.core.updates import LeastSquaresUpdate, UpdateRule, sweep
from repro.machine.cost_tracker import CostTracker
from repro.tensor.norms import residual_from_mttkrp
from repro.trees.base import MTTKRPProvider
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider

__all__ = ["run_sweeps", "SweepOutcome", "SweepRun", "SequentialRun", "solve_sequential",
           "DIVERGENCE"]

logger = logging.getLogger("repro.core")

#: an approximated sweep that raises the residual by more than this is rolled
#: back and the phase ends (Algorithm 2 line 19: return to exact ALS)
DIVERGENCE = 1e-2


@dataclass
class SweepOutcome:
    """What :func:`run_sweeps` hands back to its driver."""

    residual: float
    converged: bool
    n_sweeps: int
    records: list[SweepRecord]
    elapsed_seconds: float
    #: modeled seconds of every sweep, on substrates that model time
    modeled_seconds: list[float]

    def result_fields(self) -> dict:
        """The keyword arguments every result class shares."""
        return {
            "fitness": ResultBase.fitness_from_residual(self.residual),
            "residual": self.residual,
            "n_sweeps": self.n_sweeps,
            "converged": self.converged,
            "sweeps": self.records,
            "elapsed_seconds": self.elapsed_seconds,
        }


class SweepRun:
    """What :func:`run_sweeps` asks of a substrate.

    ``steps`` holds the factor steps ``dA^(i)``: those of the last exact sweep
    (``exact_sweep(track_step=True)``), or the distance from the ``pp-init``
    checkpoint during a phase.  It is ``None`` before the first exact sweep —
    Algorithm 2 line 2 sets ``dA^(i) = A^(i)``, which no ``pp_tol < 1`` admits.
    """

    steps = None

    def snapshot(self):
        """Opaque cost state, for :meth:`costs`."""
        raise NotImplementedError

    def costs(self, snapshot) -> tuple[dict, dict, float | None]:
        """``(kernel_seconds, flops, modeled_seconds | None)`` since ``snapshot``."""
        raise NotImplementedError

    def exact_sweep(self, track_step: bool) -> float:
        """One exact sweep in place; its residual.  ``track_step`` keeps the
        factor steps and what :meth:`start_residual` needs."""
        raise NotImplementedError

    def start_residual(self) -> float:
        """Exact residual of the factors the last tracked exact sweep started
        from, from that sweep's own first MTTKRP (Eq. 3; no tensor pass)."""
        raise NotImplementedError

    def pp_init(self) -> None:
        """Checkpoint the factors and build the pairwise operators there."""
        raise NotImplementedError

    def approx_sweep(self) -> float:
        """One PP approximated sweep in place; its (approximated) residual."""
        raise NotImplementedError

    def factor_steps(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``(factors, steps)`` as global arrays, for the ``pp_tol`` test."""
        raise NotImplementedError

    def save(self):
        """Restore point of the factors and Gram matrices, for :meth:`restore`
        (not of the steps: the exact sweep after a rollback recomputes them)."""
        raise NotImplementedError

    def restore(self, saved) -> None:
        raise NotImplementedError

    def factors(self) -> list[np.ndarray]:
        """Copies of the current global factors (the callback's argument)."""
        raise NotImplementedError

    def step_within_tolerance(self, pp_tol: float) -> bool:
        """Algorithm 2 lines 5 and 10."""
        return self.steps is not None and pp_step_within_tolerance(
            *self.factor_steps(), pp_tol)

    def phase_end(self, pp_tol: float) -> str:
        """Why a phase's loop condition failed: the mode with the largest
        ``||dA||_F / ||A||_F`` when that has crossed ``pp_tol``, else
        ``"budget"`` (a sweep bound ended the phase)."""
        ratios = [np.linalg.norm(step) / max(np.linalg.norm(factor), np.finfo(float).tiny)
                  for factor, step in zip(*self.factor_steps())]
        mode = int(np.argmax(ratios))
        return (f"pp_tol(mode {mode}, {ratios[mode]:.3f})" if ratios[mode] >= pp_tol
                else "budget")


def run_sweeps(
    run: SweepRun,
    *,
    n_sweeps: int,
    tol: float,
    pp: tuple[float, int] | None = None,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
) -> SweepOutcome:
    """Run up to ``n_sweeps`` sweeps of ``run`` under the stop rule.

    ``pp=(pp_tol, max_pp_sweeps_per_phase)`` turns on PP phases.  The
    callback sees every exact and approximated sweep, never a ``pp-init``.
    """
    pp_tol, max_phase_sweeps = pp if pp is not None else (None, 0)
    records: list[SweepRecord] = []
    modeled: list[float] = []
    residual, previous_residual, converged = 1.0, np.inf, False
    count, cumulative = 0, 0.0
    run_start = time.perf_counter()

    def finish(sweep_type: str, started: float, snapshot, notify: bool = True) -> None:
        nonlocal count, cumulative
        elapsed = time.perf_counter() - started
        cumulative += elapsed
        kernel_seconds, flops, modeled_seconds = run.costs(snapshot)
        if modeled_seconds is not None:
            modeled.append(modeled_seconds)
        fitness = ResultBase.fitness_from_residual(residual)
        records.append(SweepRecord(
            index=count, sweep_type=sweep_type, fitness=fitness,
            residual=residual, elapsed_seconds=elapsed,
            cumulative_seconds=cumulative, kernel_seconds=kernel_seconds,
            flops=flops, modeled_seconds=modeled_seconds,
        ))
        count += 1
        if notify and callback is not None:
            callback(count - 1, run.factors(), fitness)

    def settled() -> bool:
        """The stop rule: two residuals one sweep apart differ by less than tol."""
        return abs(previous_residual - residual) < tol

    def log_phase(ended: str | None) -> None:
        if ended is not None:
            logger.debug("pp phase: %d approximated sweeps, ended by %s", inner,
                         "converged" if converged and ended == "stalled" else ended)

    while count < n_sweeps:
        inner, ended = 0, None
        if pp is not None and run.step_within_tolerance(pp_tol):
            started, snapshot = time.perf_counter(), run.snapshot()
            run.pp_init()
            finish("pp-init", started, snapshot, notify=False)
            while (count < n_sweeps and inner < max_phase_sweeps
                   and run.step_within_tolerance(pp_tol)):
                started, snapshot = time.perf_counter(), run.snapshot()
                saved = run.save()
                approximated = run.approx_sweep()
                if approximated > residual + DIVERGENCE:
                    # the operators have drifted too far from the factors:
                    # discard the sweep rather than accept a worse residual
                    run.restore(saved)
                    ended = "diverged"
                    break
                residual = approximated
                finish("pp-approx", started, snapshot)
                inner += 1
                if settled():
                    # stalled: whether the run is done is for the exact sweep
                    ended = "stalled"
                    break
                previous_residual = residual
            if ended is None and logger.isEnabledFor(logging.DEBUG):
                ended = run.phase_end(pp_tol)

        if count >= n_sweeps:
            log_phase("budget")
            break

        started, snapshot = time.perf_counter(), run.snapshot()
        residual = run.exact_sweep(track_step=pp is not None)
        if inner:
            # approximated sweeps moved the factors: judge this sweep from its own start
            previous_residual = run.start_residual()
        finish("als", started, snapshot)
        converged = settled()
        log_phase(ended)
        if converged:
            break
        previous_residual = residual

    return SweepOutcome(residual, converged, count, records,
                        time.perf_counter() - run_start, modeled)


class _ExactSweepRule(LeastSquaresUpdate):
    """The exact update, keeping what Eq. (3) needs of each sweep's first MTTKRP:
    ``M^(0)`` is exact for the factors the sweep starts from, so their residual
    costs no tensor pass on any engine."""

    def adjust_mttkrp(self, mode, mttkrp, provider, grams, tracker=None):
        if mode == 0:
            self.start = (mttkrp, provider.factors[0], list(grams))
        return mttkrp


class SequentialRun(SweepRun):
    """The sequential substrate: one provider over the whole tensor.

    Exact sweeps are :func:`repro.core.updates.sweep` under ``rule``.  The
    default, ``None``, is the exact least-squares rule keeping what
    :meth:`start_residual` needs — the one a PP run takes, since PP
    approximates the MTTKRP, not the update.
    """

    def __init__(self, provider: MTTKRPProvider, grams: list[np.ndarray],
                 norm_t: float, tracker: CostTracker, rule: UpdateRule | None = None):
        self.provider, self.grams, self.norm_t = provider, grams, norm_t
        self.tracker = tracker
        self.rule = _ExactSweepRule() if rule is None else rule
        # per-mode Mtilde workspaces, reused across every approximated sweep
        self._workspaces: dict[int, np.ndarray] = {}

    def snapshot(self):
        return self.tracker.snapshot()

    def costs(self, snapshot):
        delta = self.tracker.diff_since(snapshot)
        return delta.seconds_by_category, delta.flops_by_category, None

    def exact_sweep(self, track_step: bool) -> float:
        provider = self.provider
        before = [f.copy() for f in provider.factors] if track_step else None
        last_mttkrp = sweep(provider, self.grams, rule=self.rule, tracker=self.tracker)
        residual = self.rule.residual(self.norm_t, last_mttkrp, provider, self.grams)
        if track_step:
            self.steps = [f - b for f, b in zip(provider.factors, before)]
        return residual

    def start_residual(self) -> float:
        return residual_from_mttkrp(self.norm_t, *self.rule.start, last_mode=0)

    def pp_init(self) -> None:
        provider = self.provider
        self.checkpoint = [f.copy() for f in provider.factors]
        self.steps = [np.zeros_like(f) for f in provider.factors]
        self.operators = PairwiseOperators.build(
            provider.tensor, self.checkpoint, tracker=self.tracker, provider=provider)
        # dS^(i) = A^(i)^T dA^(i) (Eq. 8) is refreshed after each mode update
        # and carried from one approximated sweep to the next
        self.delta_grams = [np.zeros_like(g) for g in self.grams]

    def approx_sweep(self) -> float:
        provider, grams, tracker = self.provider, self.grams, self.tracker
        for mode in range(provider.order):
            gamma = gamma_chain(grams, mode, tracker=tracker)
            updated, approx = fused_approx_update(
                self.operators, mode, provider.factors[mode], self.steps, grams,
                self.delta_grams, gamma, self.rule, tracker=tracker,
                out=self._workspaces.get(mode),
            )
            self._workspaces[mode] = approx
            provider.set_factor(mode, updated)
            self.steps[mode] = updated - self.checkpoint[mode]
            self.delta_grams[mode] = delta_gram(updated, self.steps[mode], tracker=tracker)
            grams[mode] = gram_matrix(updated, tracker=tracker)
        return residual_from_mttkrp(self.norm_t, approx, provider.factors[-1], grams,
                                    last_mode=provider.order - 1)

    def factor_steps(self):
        return self.provider.factors, self.steps

    def save(self):
        return [f.copy() for f in self.provider.factors], [g.copy() for g in self.grams]

    def restore(self, saved) -> None:
        factors, grams = saved
        for mode, factor in enumerate(factors):
            self.provider.set_factor(mode, factor)
        self.grams[:] = grams

    def factors(self) -> list[np.ndarray]:
        return [f.copy() for f in self.provider.factors]


def solve_sequential(tensor, options, cls: type, *, rule: UpdateRule | None = None,
                     result: Callable[..., ALSResult] = ALSResult,
                     initial_factors: Sequence[np.ndarray] | None = None,
                     tracker: CostTracker | None = None,
                     dtype: np.dtype | str | None = None,
                     callback: Callable[[int, list[np.ndarray], float], None] | None = None,
                     ) -> ALSResult:
    """The body of the four sequential drivers: the one sweep loop on a
    :class:`SequentialRun` of the ``cls`` bundle's engine under ``rule``.

    A :class:`~repro.core.options.PPOptions` ``cls`` turns on PP phases;
    ``result`` builds the result.  The keywords are those of
    :func:`~repro.core.cp_als.cp_als`; ``callback`` goes to
    :func:`run_sweeps`.
    """
    opts = check_options(options, cls)
    pp = ((opts.pp_tol, opts.max_pp_sweeps_per_phase)
          if issubclass(cls, PPOptions) else None)
    tracker = tracker if tracker is not None else CostTracker()
    tensor, factors, norm_t = prepare_als_inputs(
        tensor, opts.rank, min_order=2 if pp is None else 3, dtype=dtype,
        initial_factors=initial_factors, seed=opts.seed,
    )

    provider = make_provider(opts.mttkrp, tensor, factors, tracker=tracker)
    run = SequentialRun(provider, [gram_matrix(f, tracker=tracker) for f in provider.factors],
                        norm_t, tracker, rule)
    outcome = run_sweeps(run, n_sweeps=opts.n_sweeps, tol=opts.tol, pp=pp,
                         callback=callback)

    settings = {"rank": opts.rank, "n_sweeps": opts.n_sweeps, "tol": opts.tol}
    if pp is not None:
        settings["pp_tol"] = opts.pp_tol
    settings["mttkrp"] = opts.mttkrp
    if issubclass(cls, NNOptions):
        settings["update"] = opts.update
    settings["dtype"] = str(tensor.dtype)
    return result(factors=run.factors(), tracker=tracker, options=settings,
                  **outcome.result_fields())
