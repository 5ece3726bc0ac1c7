"""In-memory spans and counters for the traced benchmark run.

A span records its name, start and end (``time.perf_counter``), the index of
the span that was open when it started, and the resident set size right after
it closed. A layer's self time is its span's duration minus the time covered
by its direct children; spans of one process never overlap except by nesting.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_mb() -> float:
    """Current resident set size of this process in MiB (peak when unknown)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * _PAGE / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rss_mb: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and named counts; one tracer per traced batch."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, 0.0))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            span.rss_mb = rss_mb()

    def count(self, name: str, value: int):
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out: dict[str, float] = {}
    for span, covered in zip(spans, child_time):
        out[span.name] = out.get(span.name, 0.0) + span.duration - covered
    return out
