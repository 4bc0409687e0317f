"""The timing protocol: interleaved rounds, minima, reference normalisation.

A workload is a list of operations.  After one untimed warm-up round the
runner executes *rounds*: every round runs each operation once, in an order
that rotates by one position per round, with the three reference kernels
measured immediately before each operation.  Inputs are fixed, so an
operation does identical work in every round; it reports that through a
``repeat`` dict (fitness values, sweep counts) that must be bit-identical to
the first round's, or the execution counts as failed.

Every operation returns named timings (its own, and segments of it); the
statistic used for every timing is its **minimum over rounds**.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from refkernels import REF_NOMINAL_S, ReferenceKernels

__all__ = ["Operation", "OpResult", "Samples", "Tally", "run_rounds",
           "MIN_ROUNDS"]

#: never fewer timed rounds than this, whatever ``--seconds`` says
MIN_ROUNDS = 8


@dataclass
class OpResult:
    """What one execution of an operation hands back to the runner."""

    #: sample name -> seconds (the operation and any segments of it)
    timings: dict[str, float]
    #: values that must repeat exactly in every round (fitness, counts)
    repeat: dict = field(default_factory=dict)
    #: names of the correctness checks this execution failed
    failed_checks: list[str] = field(default_factory=list)
    #: how many requests the execution made (a service round makes 12)
    attempted: int = 1
    #: anything the workload wants to keep from the latest execution
    payload: object = None


@dataclass
class Operation:
    name: str
    run: Callable[[], OpResult]


class Tally:
    """Attempted / failed operation counts plus the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(failures)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one cross-operation check; returns ``ok``."""
        self.record(1, [] if ok else [f"{name}: {detail}" if detail else name])
        return ok


class Samples:
    """Per-round values by sample name, with the statistics the report uses."""

    def __init__(self) -> None:
        self._values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self._values.setdefault(name, []).append(value)

    def has(self, name: str) -> bool:
        return name in self._values

    def names(self, prefix: str) -> list[str]:
        return [name for name in self._values if name.startswith(prefix)]

    def min(self, name: str) -> float:
        return min(self._values[name])

    def median(self, name: str) -> float:
        return statistics.median(self._values[name])

    def q1(self, name: str) -> float:
        return self._quartiles(name)[0]

    def q3(self, name: str) -> float:
        return self._quartiles(name)[2]

    def _quartiles(self, name: str) -> list[float]:
        values = self._values[name]
        if len(values) < 2:
            return [values[0]] * 3
        return statistics.quantiles(values, n=4)

    def ref_scale(self, ref: str) -> float:
        """Factor turning a raw minimum into quiet-machine seconds."""
        return REF_NOMINAL_S[ref] / self.min(f"ref.{ref}")


def run_rounds(
    operations: list[Operation],
    seconds: float,
    min_rounds: int,
    tally: Tally,
) -> tuple[Samples, dict[str, object], int]:
    """Warm up once, then run timed rounds for ``seconds`` (>= ``min_rounds``).

    Returns the samples, each operation's latest payload and the round count.
    An operation that raises fails the run: end-to-end failures are never
    swallowed (per-layer probes catch their own errors before they get here).
    """
    refs = ReferenceKernels()
    samples = Samples()
    payloads: dict[str, object] = {}
    first_repeat: dict[str, dict] = {}

    def execute(op: Operation, timed: bool) -> None:
        # Start every operation from a collected heap.  The providers sit in
        # reference cycles, so what one operation leaves behind otherwise
        # lives until the next full collection, whenever that falls: peak RSS
        # would count rounds, and a collection would land in someone's timing.
        gc.collect()
        ref_times = refs.measure()
        result = op.run()
        payloads[op.name] = result.payload
        if not timed:
            first_repeat[op.name] = result.repeat
            return
        failures = list(result.failed_checks)
        if result.repeat != first_repeat[op.name]:
            failures.append(f"{op.name}: result not bit-identical across rounds")
        tally.record(result.attempted, failures)
        for name, value in ref_times.items():
            samples.add(f"ref.{name}", value)
        for name, value in result.timings.items():
            samples.add(name, value)

    for op in operations:
        execute(op, timed=False)

    rounds = 0
    begin = time.perf_counter()
    while True:
        shift = rounds % len(operations)
        for op in operations[shift:] + operations[:shift]:
            execute(op, timed=True)
        rounds += 1
        elapsed = time.perf_counter() - begin
        # stop when one more round of average length would overrun
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return samples, payloads, rounds
