"""In-memory spans recorded by the harness around calls into each layer.

A span is ``(name, layer, start, end, parent, operation id)``.  Spans are
kept in a list and written once, at the end of the run, to ``--trace-out``;
nothing here is imported by ``src/``.  A layer's *self time* is its spans'
duration minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "NullTracer"]

#: layer name of spans that are the harness's own glue (sweep loops, groups)
HARNESS_LAYER = "harness"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``op`` tags every span of one operation."""

    def __init__(self, op: str = "") -> None:
        self.op = op
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str = HARNESS_LAYER):
        span = Span(id=len(self.spans), name=name, layer=layer, op=self.op,
                    parent=self._stack[-1] if self._stack else None,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- queries -------------------------------------------------------------
    def descendants(self, root: Span) -> list[Span]:
        """Spans nested (at any depth) under ``root``, in start order."""
        inside = {root.id}
        out = []
        for span in self.spans[root.id + 1:]:
            if span.parent in inside:
                inside.add(span.id)
                out.append(span)
        return out

    def total(self, root: Span, name: str) -> float:
        """Summed seconds of the spans called ``name`` under ``root``."""
        return sum(s.seconds for s in self.descendants(root) if s.name == name)

    def self_seconds(self, root: Span) -> dict[str, float]:
        """Self time by layer of ``root`` and everything under it.

        The values sum to ``root.seconds`` exactly; the ``harness`` entry is
        the glue between calls (loop overhead plus the spans' own cost).
        """
        spans = [root] + self.descendants(root)
        children = defaultdict(float)
        for span in spans[1:]:
            children[span.parent] += span.seconds
        by_layer: dict[str, float] = defaultdict(float)
        for span in spans:
            by_layer[span.layer] += span.seconds - children[span.id]
        return dict(by_layer)

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: str, header: dict) -> None:
        """Write every span (times relative to the first) as one JSON file."""
        origin = self.spans[0].start if self.spans else 0.0
        rows = []
        for span in self.spans:
            row = asdict(span)
            row["start"] -= origin
            row["end"] -= origin
            rows.append(row)
        with open(path, "w") as handle:
            json.dump({"header": header, "spans": rows}, handle)


class NullTracer:
    """Same interface, records nothing: the untraced twin of a traced drive."""

    _noop = nullcontext()

    def span(self, name: str, layer: str = HARNESS_LAYER):
        return self._noop
