"""Spans recorded from outside the program, around calls into each layer.

A span is a name, a start, an end, the span that caused it (``parent``)
and the operation it belongs to (``request``).  Spans stay in memory and
are written once, at the end, to ``trace.json``.  A layer's *self time* is
its span's duration minus the part of it its child spans cover.

Spans inside ``src/`` are ROADMAP's next item; until then the benchmark
can only see a layer through the public functions it calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        #: ``[name, start, end, parent, request]`` per span; id = position.
        self.spans: list[list] = []

    def begin(self, name: str, parent: int | None = None,
              request: int | None = None) -> int:
        self.spans.append([name, time.perf_counter(), None, parent, request])
        return len(self.spans) - 1

    def end(self, span_id: int, at: float | None = None) -> float:
        span = self.spans[span_id]
        span[2] = time.perf_counter() if at is None else at
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str, parent: int | None = None,
             request: int | None = None):
        span_id = self.begin(name, parent, request)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def add(self, name: str, start: float, duration: float,
            parent: int | None = None, request: int | None = None) -> int:
        """A span whose times were reported by someone else (the server's
        ``queue_wait_s``/``execution_s``), placed inside its parent."""
        self.spans.append([name, start, start + duration, parent, request])
        return len(self.spans) - 1

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, (name, start, end, _, _) in enumerate(self.spans):
            if end is not None:
                totals[name] += max(0.0, end - start - child_time[span_id])
        return dict(totals)

    def write(self, path: Path, **header) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        document = {
            **header,
            "unit": "seconds since the first span",
            "columns": ["id", "name", "start", "end", "parent", "request"],
            "spans": [
                [i, name, start - origin, (end if end is not None else start) - origin,
                 parent, request]
                for i, (name, start, end, parent, request) in enumerate(self.spans)
            ],
            "self_time_s": self.self_times(),
        }
        path.write_text(json.dumps(document))
