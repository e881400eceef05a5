"""In-memory spans around the benchmark's calls into each layer.

Spans are recorded from the benchmark's own code only; nothing inside
the program is instrumented.  Each span has a name (``layer.step``), a
start and end on the ``perf_counter`` clock, its parent span and the id
of the request (op) it belongs to.  They stay in memory and are written
once at exit as Chrome trace-event JSON, which Perfetto opens.

Untraced runs use :data:`NULL_TRACER`, whose spans cost one call.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    span_id: int
    parent_id: int
    name: str
    start: float
    end: float
    request_id: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request_id = ""
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def request(self, request_id: str):
        """Spans opened inside share ``request_id``."""
        self._request_id = request_id
        try:
            yield
        finally:
            self._request_id = ""

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end, self._request_id)
            )

    def durations(self, name: str) -> list[tuple[float, float]]:
        """``(start, seconds)`` of every span called ``name``."""
        return [(s.start, s.end - s.start) for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per name: count, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children never overlap here (one thread), so that is the
        sum of their durations.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent_id:
                child_time[s.parent_id] += s.end - s.start
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = table[s.name]
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += s.end - s.start - child_time[s.span_id]
        return {name: tuple(row) for name, row in table.items()}

    def write_chrome_trace(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "request_id": s.request_id,
                },
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

    def self_time_table(self) -> str:
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':<28}{'count':>7}{'total_ms':>12}{'self_ms':>12}"]
        for name, (count, total, self_s) in rows:
            lines.append(
                f"{name:<28}{count:>7}{total * 1e3:>12.1f}{self_s * 1e3:>12.1f}"
            )
        return "\n".join(lines)


class _NullTracer:
    def request(self, request_id: str):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()

