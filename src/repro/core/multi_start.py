"""Batched multi-start driver over the sequential bundles.

CP-ALS converges to a local optimum of a non-convex objective, so production
use runs ``K`` random initializations and keeps the best fit.  Each start is
one :func:`~repro.core.decompose.decompose` call, so the options bundle's
class picks the solver (ALS, PP, nonnegative or masked).  The starts are
embarrassingly parallel *and* share all contraction structure: every start
contracts the same tensor with factor matrices of the same shapes, so the
plan cache of the shared :class:`~repro.contract.ContractionEngine` is warmed
by the first start and hit by all others.  The driver runs the starts
sequentially by default and on a thread pool with ``n_workers > 1`` (the
engine is thread-safe and NumPy releases the GIL inside the contractions).

Per-start seeds are spawned deterministically from one root seed with
``np.random.SeedSequence.spawn``, so results are reproducible bit-for-bit
regardless of ``n_workers`` and match a manual loop of single starts that
uses :func:`start_seeds`.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.decompose import algorithm_name, decompose
from repro.core.options import ALSOptions, MaskedOptions, ParallelOptions, check_options
from repro.core.results import ALSResult, ResultBase, SweepRecord
from repro.machine.cost_tracker import CostTracker
from repro.utils.validation import check_positive_int

__all__ = ["start_seeds", "multi_start", "MultiStartResult"]


def start_seeds(seed: int | None, n_starts: int) -> list[np.random.SeedSequence]:
    """Deterministic per-start seed sequences spawned from one root ``seed``.

    ``multi_start`` with a bundle seeded ``s`` uses exactly these sequences in
    start order, so a manual loop over ``start_seeds(s, k)`` reproduces its
    starts.
    """
    n_starts = check_positive_int(n_starts, "n_starts")
    return list(np.random.SeedSequence(seed).spawn(n_starts))


@dataclass
class MultiStartResult(ResultBase):
    """Outcome of a best-of-K multi-start run.

    Shares the :class:`~repro.core.results.ResultBase` accessor surface with
    :class:`~repro.core.results.ALSResult`: ``factors``, ``fitness``,
    ``residual``, ``converged``, ``n_sweeps`` and ``sweeps`` all refer to the
    best start, so consumers (e.g. :mod:`repro.service`) handle one result
    shape regardless of driver.
    """

    best_index: int
    results: List[ALSResult]
    elapsed_seconds: float
    algorithm: str = "als"
    n_workers: int = 1
    options: dict = field(default_factory=dict)

    @property
    def best(self) -> ALSResult:
        """The result with the highest fitness (ties: lowest start index)."""
        return self.results[self.best_index]

    @property
    def factors(self) -> List[np.ndarray]:
        """Factor matrices of the best start."""
        return self.best.factors

    @property
    def fitness(self) -> float:
        return self.best.fitness

    @property
    def residual(self) -> float:
        """Relative residual of the best start."""
        return self.best.residual

    @property
    def converged(self) -> bool:
        """Whether the best start converged."""
        return self.best.converged

    @property
    def n_sweeps(self) -> int:
        """Sweeps run by the best start."""
        return self.best.n_sweeps

    @property
    def sweeps(self) -> List[SweepRecord]:
        """Sweep records of the best start (all starts: :meth:`trajectory_table`)."""
        return self.best.sweeps

    @property
    def n_starts(self) -> int:
        return len(self.results)

    def fitnesses(self) -> list[float]:
        """Final fitness of every start, in start order."""
        return [r.fitness for r in self.results]

    def trajectory_table(self) -> list[dict]:
        """One row per (start, sweep): the full fitness trajectory table.

        Rows carry ``start``, ``sweep``, ``type``, ``fitness``, ``residual``
        and ``cumulative_seconds`` — everything a fitness-vs-time plot over
        all starts needs.
        """
        rows: list[dict] = []
        for start_index, result in enumerate(self.results):
            for record in result.sweeps:
                rows.append(
                    {
                        "start": start_index,
                        "sweep": record.index,
                        "type": record.sweep_type,
                        "fitness": record.fitness,
                        "residual": record.residual,
                        "cumulative_seconds": record.cumulative_seconds,
                    }
                )
        return rows

    def summary_table(self) -> list[dict]:
        """One row per start: final fitness, sweep count, convergence, time."""
        return [
            {
                "start": k,
                "fitness": r.fitness,
                "residual": r.residual,
                "n_sweeps": r.n_sweeps,
                "converged": r.converged,
                "elapsed_seconds": r.elapsed_seconds,
                "best": k == self.best_index,
            }
            for k, r in enumerate(self.results)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiStartResult(n_starts={self.n_starts}, best_index={self.best_index}, "
            f"fitness={self.fitness:.4f})"
        )


def _best_index(results: List[ALSResult]) -> int:
    def score(result: ALSResult) -> float:
        # a diverged start can report NaN fitness; NaN comparisons are always
        # False, which would make it unbeatable — rank it below everything
        fitness = result.fitness
        return fitness if np.isfinite(fitness) else float("-inf")

    best = 0
    for k in range(1, len(results)):
        if score(results[k]) > score(results[best]):
            best = k
    return best


def multi_start(
    tensor: np.ndarray,
    options: ALSOptions,
    *,
    n_starts: int = 8,
    n_workers: int = 1,
    tracker: CostTracker | None = None,
    **solver_kwargs,
) -> MultiStartResult:
    """Best-of-``n_starts`` CP decomposition with shared contraction plans.

    Parameters
    ----------
    tensor:
        As in :func:`~repro.core.cp_als.cp_als`; the tensor may be a dense
        ndarray or a sparse :class:`repro.sparse.CooTensor` (every start then
        runs the sparse MTTKRP engines against the shared plan cache).
    options:
        A sequential bundle (:class:`~repro.core.options.ALSOptions`,
        :class:`~repro.core.options.PPOptions`, ...).  Its class selects the
        solver through :func:`repro.core.decompose.decompose` (e.g. an
        :class:`~repro.core.options.NNOptions` runs ``"nncp"``), and its
        ``seed`` is the root seed: per-start seeds come from
        :func:`start_seeds`, so the run is deterministic for any
        ``n_workers``.
    n_starts:
        Number of independent random initializations ``K``.
    n_workers:
        Worker threads for the embarrassingly parallel starts (1 = sequential).
    tracker:
        Optional :class:`CostTracker`; each start accumulates into a private
        tracker (the class is not thread-safe) and all of them are merged into
        this one in start order after the run.
    solver_kwargs:
        Data and runtime arguments forwarded to the solver (``callback``,
        ``mask``, ``dtype``).

    Returns
    -------
    :class:`MultiStartResult` with the best-fitness result and the per-start
    fitness trajectory table; its ``options`` records the bundle's settings
    and ``n_starts``, never the data and runtime arguments.
    """
    if isinstance(options, ParallelOptions):
        raise TypeError(
            "multi_start batches the sequential solvers; pass ALSOptions "
            "or PPOptions, not a parallel bundle"
        )
    algorithm = algorithm_name(check_options(options, ALSOptions))
    n_starts = check_positive_int(n_starts, "n_starts")
    n_workers = check_positive_int(n_workers, "n_workers")
    if "mask" in solver_kwargs and not isinstance(options, MaskedOptions):
        raise TypeError(
            f"algorithm {algorithm!r} does not accept a mask; masked "
            "decomposition runs under a MaskedOptions bundle"
        )
    if "initial_factors" in solver_kwargs:
        # tracker is a named multi_start parameter and can never reach
        # solver_kwargs; only this one needs an explicit guard
        raise TypeError(
            "multi_start draws every start's initialization from its spawned "
            "seed; explicit initial_factors are not supported (run the solver "
            "directly for a single chosen initialization)"
        )
    seeds = start_seeds(options.seed, n_starts)
    trackers = [CostTracker() for _ in range(n_starts)]

    def _run(k: int) -> ALSResult:
        start_options = dataclasses.replace(
            options, seed=np.random.default_rng(seeds[k])
        )
        return decompose(tensor, start_options, tracker=trackers[k], **solver_kwargs)

    run_start = time.perf_counter()
    if n_workers == 1 or n_starts == 1:
        results = [_run(k) for k in range(n_starts)]
    else:
        with ThreadPoolExecutor(max_workers=min(n_workers, n_starts)) as pool:
            results = list(pool.map(_run, range(n_starts)))
    elapsed = time.perf_counter() - run_start

    if tracker is not None:
        for local in trackers:
            tracker.merge(local)

    return MultiStartResult(
        best_index=_best_index(results),
        results=results,
        elapsed_seconds=elapsed,
        algorithm=algorithm,
        n_workers=n_workers,
        options={**options.asdict(), "n_starts": n_starts},
    )
