"""Abstract group-collective interface used by the parallel algorithms.

The interface is deliberately BSP-superstep shaped: a collective is invoked
once per superstep with the contributions of *all* participating ranks and
returns the per-rank results.  This keeps the simulated machine simple and
deterministic while remaining a faithful description of the data movement; a
true SPMD deployment would map each call onto the corresponding MPI collective.
:class:`repro.comm.simulated.SimulatedMachine` implements it, and
:class:`repro.comm.procs.ProcessMachine` inherits that implementation.
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence

import numpy as np

__all__ = ["GroupCollectives"]


class GroupCollectives(abc.ABC):
    """Array collectives over explicit rank groups."""

    @property
    @abc.abstractmethod
    def n_ranks(self) -> int:
        """Total number of ranks on the machine."""

    @abc.abstractmethod
    def all_reduce(
        self, contributions: Mapping[int, np.ndarray], group: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Sum the contributions of ``group`` and return the sum to every member."""

    @abc.abstractmethod
    def all_gather_rows(
        self, contributions: Mapping[int, np.ndarray], group: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Concatenate the row blocks of ``group`` (in group order) on every member."""

    @abc.abstractmethod
    def reduce_scatter_rows(
        self,
        contributions: Mapping[int, np.ndarray],
        group: Sequence[int],
        row_ranges: Mapping[int, tuple[int, int]] | None = None,
    ) -> dict[int, np.ndarray]:
        """Sum the contributions of ``group`` and scatter row ranges to its members.

        ``row_ranges`` maps each member rank to the half-open row range of the
        summed array it should own; when omitted the rows are split evenly in
        group order.
        """

    @abc.abstractmethod
    def broadcast(
        self, value: np.ndarray, group: Sequence[int], root: int
    ) -> dict[int, np.ndarray]:
        """Send ``value`` from ``root`` to every member of ``group``."""

    # -- helpers shared by implementations ----------------------------------
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
