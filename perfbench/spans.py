"""Spans and counters recorded around the benchmark's calls into the library.

A span is (name, start, end, parent, op id, attrs).  Spans stay in memory
until the run ends; self time is a span's duration minus the time its
direct children cover.  With tracing off, `call` runs the function and
records nothing, so untraced runs pay one attribute check per call.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.op_id: int | None = None

    def call(self, name: str, fn, *args, attrs: dict | None = None):
        """Run fn(*args) inside a span named after the library function."""
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id, attrs)

    def record(self, name: str, start: float, end: float, attrs: dict | None = None):
        """Add a finished span measured by the caller (used for child processes)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((name, start, end, parent, self.op_id, attrs))

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[0] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op_id, "attrs": attrs,
                }) + "\n")


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one span's bookkeeping on this machine."""
    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(repeats):
        probe.call("probe", int)
    return (time.perf_counter() - start) / repeats
