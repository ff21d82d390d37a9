"""In-memory spans around the calls the benchmark makes into each layer."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, parent: Optional[int]) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records named spans with their parent; written out on request.

    A span costs two clock reads and one small object, so the timed serves
    use the same spans for their own timings; only the traced serve adds a
    profiler on top.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(name, parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        return median(values) if values else 0.0

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            totals[span.name] = (
                totals.get(span.name, 0.0) + span.duration - child_time[index]
            )
        return totals

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [
                {"id": index, "name": span.name, "parent": span.parent,
                 "start_s": span.start - origin, "end_s": span.end - origin}
                for index, span in enumerate(self.spans)
            ],
            "self_s": self.self_times(),
        }, indent=1))
