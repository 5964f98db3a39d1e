"""Spans recorded around the benchmark's calls into each cycpres layer.

A span has an id, a parent id (None at the root), a name, start and end
times from ``perf_counter`` and optional counts.  Spans are kept in
memory and written out when the run ends.  With tracing off the
benchmark passes ``NO_SPAN`` instead of a tracer, so the untraced run
pays one shared null context manager per call and records nothing.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter
from typing import Dict, List, Optional

NULL = contextlib.nullcontext()


def NO_SPAN(name: str, **counts):  # noqa: N802 - used like Tracer.span
    return NULL


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, id: int, parent: Optional[int], name: str, start: float,
                 end: float = 0.0, counts: Optional[Dict[str, float]] = None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.counts = counts if counts is not None else {}

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent, name, perf_counter(), 0.0, dict(counts))
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = perf_counter()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh, separators=(",", ":"))


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent interval and overlapping children
    are merged, so the result is never negative.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out
