"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the mwsnsim layers from outside, at the
name their caller looks up, and records one span per call: a group name,
start, end and the enclosing span. Spans stay in memory until the run ends.
A group's self time is the time its spans cover minus the time their direct
child spans cover, so the self times of all groups add up to the traced
time without counting any interval twice.
"""

from __future__ import annotations

import csv
import functools
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    """Records spans of wrapped calls and per-group counters.

    Every wrapped call adds 1 to the counter named after its group; an
    optional `after(counts, args, result)` hook adds counters that need the
    call's arguments or result.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._active = False

    def wrap(self, owner, attr: str, group: str, after=None) -> None:
        """Replace owner.attr by a wrapper that records a span named group
        while the tracer is active, and calls through untouched otherwise."""
        original = getattr(owner, attr)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._active:
                return original(*args, **kwargs)
            idx = len(names)
            names.append(group)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            counts[group] += 1
            if after is not None:
                after(counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def start(self) -> int:
        """Begin recording; returns the index of the next span."""
        self._active = True
        return len(self.names)

    def stop(self) -> int:
        """Stop recording; returns the index one past the last span."""
        self._active = False
        return len(self.names)

    def restore(self) -> None:
        """Put every wrapped name back as it was."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time per group over spans[first:last]."""
        last = len(self.names) if last is None else last
        return self_times(self.names[first:last], self.starts[first:last],
                          self.ends[first:last], [p - first for p in self.parents[first:last]])

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start", "end", "parent"])
            for i, name in enumerate(self.names):
                writer.writerow([i, name, repr(self.starts[i]), repr(self.ends[i]), self.parents[i]])


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Self time per span name: each span's duration minus the durations of
    its direct children (parents[i] is the index of span i's enclosing
    span, negative at top level). Children of one span never overlap,
    because the traced program runs on one thread."""
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[name] += (ends[i] - starts[i]) - covered[i]
    return dict(out)
