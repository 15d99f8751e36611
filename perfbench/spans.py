"""In-memory spans and counters, and the arithmetic over them.

A span is (name, start, end, parent index); spans nest because the traced
program runs on one thread. A name's busy time is the union of its spans'
intervals (spans nested inside a span of the same name add nothing). A
span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def write(self, path: Path):
        rows = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        path.write_text(json.dumps({"spans": rows,
                                    "counts": dict(self.counts)}) + "\n")


def busy(spans: list[Span], name: str) -> float:
    """Union of the intervals of `name`'s spans."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            total += span.end - span.start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the duration of its direct children."""
    out = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def self_times_cover(spans: list[Span], wall_s: float) -> bool:
    """Whether every span closed inside its parent (no self time is
    negative) and the self times add up, within 1 ms, to `wall_s`: the
    traced calls' duration taken with a clock read outside the spans."""
    own = self_times(spans)
    return (all(s.end >= s.start for s in spans) and min(own) >= 0.0
            and abs(sum(own) - wall_s) <= 1e-3)


def self_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
