"""In-memory spans for the traced benchmark run.

A span is ``[name, start, end, parent, item]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or
None) and ``item`` the identifier of the benchmark item being run.
Spans are only recorded while ``enabled`` is true; otherwise ``span``
hands back one shared no-op context, so the untraced run pays for an
attribute test and nothing else.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_OFF = nullcontext()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans: list = []
        self._stack: list = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"], "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.item])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


def span_stats(spans) -> dict:
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the benchmark is
    single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        st = out.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += end - start
        st[2] += end - start - child[i]
    return out
