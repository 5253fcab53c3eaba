"""In-memory spans recorded around calls into warpshield's layers.

A span is ``(name, start, end, parent)``; the parent is the index of the span
that was open when this one started.  The benchmark runs single-threaded, so
open spans form a stack and every child lies inside its parent.  Names are
``<layer>.<function>`` for calls into the program and ``step.<command>`` for
the benchmark's own grouping of those calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; when disabled, calls pass straight through."""

    def __init__(self, enabled: bool = True, trace_id: str = ""):
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the name's first component) not covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name.split(".", 1)[0]] += end - start - covered
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name.split(".", 1)[0]] += 1
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "trace_id": self.trace_id,
                    "spans": [
                        {"id": i, "name": n, "start": s, "end": e, "parent": p}
                        for i, (n, s, e, p) in enumerate(self.spans)
                    ],
                },
                fh,
            )
