"""One rank's local kernels, the same object on every execution substrate.

:class:`RankKernels` holds one rank's MTTKRP provider (and through it the
rank's cost tracker), its PP checkpoint and its pairwise operators, and runs
the three rank-local steps of Algorithms 3 and 4: the local MTTKRP, the local
PP-init and the local PP contribution.  A simulated rank is a
:class:`RankKernels` in the calling process; a process worker
(:mod:`repro.comm.procs`) owns one on its own tensor block and serves the same
commands off its queue.  The master drives either through one surface —
``submit(command, *args)`` then ``collect()`` — so a simulated rank computes
inside ``submit`` and a remote one
(:class:`~repro.distributed.runtime.RemoteRank`) posts the command there.
"""

from __future__ import annotations

import time

import numpy as np

from repro.trees.pp_operators import PairwiseOperators

__all__ = ["RankKernels"]


class RankKernels:
    """Rank-local MTTKRP and PP kernels over one rank's provider."""

    def __init__(self, provider):
        self.provider = provider
        self.checkpoint: list[np.ndarray] | None = None
        self.operators: PairwiseOperators | None = None
        self._result = None

    @property
    def tracker(self):
        return self.provider.tracker

    def set_factor(self, mode: int, factor: np.ndarray) -> None:
        self.provider.set_factor(mode, factor)

    def mttkrp(self, mode: int) -> np.ndarray:
        return self.provider.mttkrp(mode)

    def pp_build(self) -> None:
        """Local PP-init (Algorithm 4, line 2): checkpoint, then build the operators.

        The checkpoint makes :meth:`pp_contrib` self-contained: the factor
        steps are recomputed locally as ``factor - checkpoint``, so only the
        ``R x R`` accumulator has to reach the rank.
        """
        provider = self.provider
        self.checkpoint = [f.copy() for f in provider.factors]
        self.operators = PairwiseOperators.build(
            provider.tensor, provider.factors, tracker=self.tracker, provider=provider)

    def pp_contrib(self, mode: int, accumulator: np.ndarray,
                   group_size: int) -> np.ndarray:
        """This rank's approximated MTTKRP contribution for ``mode``.

        The local first-order MTTKRP plus this rank's share of the (global)
        second-order correction ``V^(mode)``: the rows of its factor block
        times the accumulator, divided by the slice size so the
        Reduce-Scatter over the slice contributes ``V`` exactly once.
        """
        if self.operators is None:
            raise RuntimeError("pp_contrib before pp_build")
        factors = self.provider.factors
        local = self.operators.first_order_mttkrp(
            mode,
            [None if other == mode else factor - checkpoint
             for other, (factor, checkpoint) in enumerate(zip(factors, self.checkpoint))],
            tracker=self.tracker,
        )
        factor_block = factors[mode]
        group_size = max(group_size, 1)
        t0 = time.perf_counter()
        v_block = factor_block @ accumulator
        self.tracker.add_flops(
            "others", 2 * factor_block.shape[0] * accumulator.shape[0] ** 2 // group_size)
        self.tracker.add_seconds("others", time.perf_counter() - t0)
        return local + v_block / group_size

    def run(self, command: tuple):
        """Run one ``(name, *args)`` kernel command and return its result."""
        name, *args = command
        return getattr(self, name)(*args)

    # -- the master's submit/collect surface (a simulated rank) ------------------
    def submit(self, *command) -> None:
        self._result = self.run(command)

    def collect(self):
        result, self._result = self._result, None
        return result
