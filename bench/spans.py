"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, op): ``name`` is ``<layer>.<call>``,
``parent`` is the index of the enclosing span (or None) and ``op`` the id
of the operation being run.  Spans are only ever opened by the benchmark
around its own calls into the library, so a layer's self time is the
time of its spans minus the time covered by their children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one method call, counters nothing."""

    op = None

    def span(self, name):
        return _NULL

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def totals(self) -> dict:
        """Seconds per span name and self seconds per layer."""
        out = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name + ".s"] += t1 - t0
            out[name.split(".")[0] + ".self_s"] += (t1 - t0) - child[i]
        return out

    def records(self) -> list:
        return [{"name": n, "start": t0, "end": t1, "parent": par, "op": op}
                for n, t0, t1, par, op in self.spans]
