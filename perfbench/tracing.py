"""In-memory spans around calls into annkit's layers.

A span is (id, name, start, end, parent id). The benchmark opens spans
around its own calls into each layer, and :meth:`Tracer.rebind` swaps a
module attribute for a wrapper that opens a span, so calls that one annkit
module makes into another are timed without editing program source. Every
rebinding is undone when the ``with`` block ends. :class:`NullTracer`
keeps the same call structure with no bookkeeping, for untraced runs.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Optional


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer interface that records nothing."""

    enabled = False

    def span(self, name: str):
        return _NULL_SPAN


class Tracer:
    """Records spans in memory; write them out with :meth:`dump`."""

    enabled = True

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def rebind(self, *targets):
        """Trace calls through ``(owner, attribute, span name)`` targets,
        where owner is a module or class, for the length of the block."""
        saved = []
        try:
            for owner, attr, name in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- queries over recorded spans -------------------------------------

    def durations(self, name: str, parents: Optional[set] = None) -> list:
        """Durations in seconds of spans called ``name`` whose parent span
        is named in ``parents`` (any parent when None)."""
        out = []
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            if parents is not None:
                if parent < 0 or self.spans[parent][0] not in parents:
                    continue
            out.append(end - start)
        return out

    def child_durations(self, parent_name: str, child_name: str) -> list:
        """For each span called ``parent_name``, the summed duration of its
        direct children called ``child_name``."""
        totals: dict = {}
        for i, (span_name, _, _, _) in enumerate(self.spans):
            if span_name == parent_name:
                totals[i] = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == child_name and parent in totals:
                totals[parent] += end - start
        return list(totals.values())

    def self_times(self) -> dict:
        """Total and self seconds per span name; self time is a span's
        duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        summary: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = summary.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return summary

    def dump(self, path) -> None:
        """Write every span and the per-name summary as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [
                {"id": i, "name": name, "start_s": start - t0, "end_s": end - t0, "parent": parent}
                for i, (name, start, end, parent) in enumerate(self.spans)
            ],
            "summary": self.self_times(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
