"""In-process simulated BSP machine with MPI-style collectives.

A :class:`SimulatedMachine` hosts ``P`` logical ranks.  Its collectives are
BSP-superstep shaped: each is invoked once per superstep with the
contributions of *all* ranks of an explicit group and returns the per-rank
results.  They move the actual numpy data between the contributions (so
results are exactly what a real distributed execution would produce) and
charge the latency / bandwidth cost of Section II-E of the paper to every
participating rank's :class:`~repro.machine.cost_tracker.CostTracker`.
:class:`repro.comm.procs.ProcessMachine` inherits them.

This is the documented substitution for the paper's Cyclops/MPI runs on
Stampede2: the local computations and the communicated volumes are identical;
only the wall-clock of the communication is modeled rather than measured.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.grid.distribution import split_rows_evenly
from repro.machine.collective_costs import (
    all_gather_cost,
    all_reduce_cost,
    reduce_scatter_cost,
)
from repro.machine.cost_tracker import CostTracker
from repro.machine.params import MachineParams
from repro.utils.validation import check_positive_int

__all__ = ["SimulatedMachine"]


class SimulatedMachine:
    """``P`` logical ranks with exact collectives and modeled communication cost."""

    def __init__(self, n_ranks: int, params: MachineParams | None = None):
        self._n_ranks = check_positive_int(n_ranks, "n_ranks")
        self.params = params if params is not None else MachineParams.knl_like()
        self._trackers = [CostTracker() for _ in range(self._n_ranks)]

    # -- introspection -------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self._n_ranks

    def tracker(self, rank: int) -> CostTracker:
        """Cost tracker of ``rank`` (local kernels record their flops here)."""
        if not 0 <= rank < self._n_ranks:
            raise ValueError(f"rank {rank} out of range for {self._n_ranks} ranks")
        return self._trackers[rank]

    def snapshot_costs(self) -> list[CostTracker]:
        """Per-rank snapshots, for differencing per-sweep costs."""
        return [t.snapshot() for t in self._trackers]

    def costs_since(self, snapshots: Sequence[CostTracker]) -> list[CostTracker]:
        if len(snapshots) != self._n_ranks:
            raise ValueError("snapshot list length does not match rank count")
        return [t.diff_since(s) for t, s in zip(self._trackers, snapshots)]

    def critical_path_tracker(self) -> CostTracker:
        """Category-wise max over ranks — the BSP critical path."""
        return CostTracker.max_over(self._trackers)

    def modeled_time(self) -> float:
        """Modeled seconds of the critical path under this machine's params."""
        return self.critical_path_tracker().modeled_time(self.params)

    # -- substrate -------------------------------------------------------------
    def attach(self, grid, dist_tensor, dist_factors, mttkrp: str):
        """The ranks of one distributed problem on this machine, in this
        process (a :class:`~repro.distributed.runtime.LocalRuntime`)."""
        from repro.distributed.runtime import LocalRuntime

        return LocalRuntime(self, grid, dist_tensor, dist_factors, mttkrp)

    def close(self) -> None:
        """Release the machine's resources (none in one process)."""

    # -- internal ---------------------------------------------------------------
    def _charge(self, group: Sequence[int], messages: float, words: float) -> None:
        for rank in group:
            tracker = self._trackers[rank]
            tracker.add_messages(int(round(messages)))
            tracker.add_horizontal_words(int(round(words)))

    @staticmethod
    def _as_array(value: np.ndarray) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        return arr

    @staticmethod
    def _check_group(contributions: Mapping[int, np.ndarray], group: Sequence[int]) -> list[int]:
        group = [int(r) for r in group]
        if len(group) == 0:
            raise ValueError("collective group must be non-empty")
        if len(set(group)) != len(group):
            raise ValueError(f"collective group contains duplicate ranks: {group}")
        missing = [r for r in group if r not in contributions]
        if missing:
            raise ValueError(f"missing contributions for ranks {missing}")
        return group

    # -- collectives -------------------------------------------------------------
    def all_reduce(
        self, contributions: Mapping[int, np.ndarray], group: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Sum the contributions of ``group`` and return the sum to every member."""
        group = self._check_group(contributions, group)
        arrays = [self._as_array(contributions[r]) for r in group]
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(f"all_reduce contributions must share a shape, got {shapes}")
        total = np.sum(arrays, axis=0)
        messages, words = all_reduce_cost(total.size, len(group))
        self._charge(group, messages, words)
        return {r: total.copy() for r in group}

    def all_gather_rows(
        self, contributions: Mapping[int, np.ndarray], group: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Concatenate the row blocks of ``group`` (in group order) on every member."""
        group = self._check_group(contributions, group)
        arrays = [np.atleast_2d(self._as_array(contributions[r])) for r in group]
        trailing = {a.shape[1:] for a in arrays}
        if len(trailing) != 1:
            raise ValueError(
                f"all_gather_rows contributions must share trailing dims, got {trailing}"
            )
        gathered = np.concatenate(arrays, axis=0)
        messages, words = all_gather_cost(gathered.size, len(group))
        self._charge(group, messages, words)
        return {r: gathered.copy() for r in group}

    def reduce_scatter_rows(
        self, contributions: Mapping[int, np.ndarray], group: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Sum the contributions of ``group`` and scatter its rows, split
        evenly in group order, to the members."""
        group = self._check_group(contributions, group)
        arrays = [np.atleast_2d(self._as_array(contributions[r])) for r in group]
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(
                f"reduce_scatter_rows contributions must share a shape, got {shapes}"
            )
        total = np.sum(arrays, axis=0)
        ranges = split_rows_evenly(total.shape[0], len(group))
        messages, words = reduce_scatter_cost(total.size, len(group))
        self._charge(group, messages, words)
        return {rank: total[start:stop].copy() for rank, (start, stop) in zip(group, ranges)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedMachine(n_ranks={self._n_ranks})"
