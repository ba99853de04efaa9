"""Spans, counts and check tallies recorded by the benchmark.

Spans sit around the calls the benchmark itself makes into qnls modules;
nothing inside ``src/`` is instrumented.  A span's name starts with the
module (layer) it measures, e.g. ``exppoly.canonicalize``.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one method call and record nothing."""

    def span(self, name: str):
        return _NULL

    def add(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Keeps spans (name, start, end, parent index, group) and per-group
    counts in memory.  A group is one pass, or the in-process set-up."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(dict)
        self.group = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.group])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        group = self.counts[self.group]
        group[name] = group.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        group = self.counts[self.group]
        group[name] = max(group.get(name, value), value)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: each is the median over the groups that have it.

        ``<span>_s`` is the summed duration of a span name within a group;
        ``<layer>.self_s`` is the layer's span time minus the part covered
        by child spans.  Counts are taken as recorded.
        """
        per_group: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _, group) in enumerate(self.spans):
            values = per_group[group]
            values[name + "_s"] += end - start
            values[name.split(".")[0] + ".self_s"] += end - start - child_time[index]
        for group, counts in self.counts.items():
            values = per_group[group]
            values.update(counts)
            if "alcovefn.eval_terms" in values:
                values["alcovefn.eval_terms_mean"] = (
                    values.pop("alcovefn.eval_terms") / values["alcovefn.eval_calls"]
                )
        names = {name for values in per_group.values() for name in values}
        return {
            name: statistics.median(v[name] for v in per_group.values() if name in v)
            for name in sorted(names)
        }

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "group": g}
            for n, s, e, p, g in self.spans
        ]


class Tally:
    """Checks attempted and failed.  An exception inside ``op`` counts as
    one failed operation and the pass goes on with the next one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    @contextmanager
    def op(self, what: str):
        try:
            yield
        except Exception:
            self.attempted += 1
            self.failed += 1
            print(f"perfbench: {what} raised:", file=sys.stderr)
            traceback.print_exc()
