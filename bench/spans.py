"""In-memory spans for the traced replay, and the summary statistics the
benchmark reports.

A span is [name, start, end, parent, op_id]; `parent` is the index of the
enclosing span in `Tracer.spans`, or None for an op's root span.  Nothing is
written while ops run: `Tracer.spans` is dumped once the run is over.
"""

from __future__ import annotations

import math
import statistics
from contextlib import nullcontext
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else None
        tr.spans.append([self.name, perf_counter(), None, parent, tr.op_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Records one span per `with tracer.span(name):` block."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self) -> dict[int, dict[str, float]]:
        """Per op id, the summed duration (s) of each span name."""
        out: dict[int, dict[str, float]] = {}
        for name, start, end, _, op_id in self.spans:
            if end is None:
                continue
            per_op = out.setdefault(op_id, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start)
        return out


class NullTracer:
    """Same interface as Tracer, records nothing."""

    op_id = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it, or
    the median when there are too few samples for one above it."""
    return max(50, math.floor(100 * (count - 10) / count)) if count else 50


def percentile(values, p: int) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
