"""In-memory span tracer and the wrappers it installs around hdgcd layers.

A span records its name, start, end, parent span and op id.  Spans stay in
memory until the run ends.  The tracer never edits hdgcd: it replaces, for
the duration of a ``with install(...)`` block, the module attributes (and
dispatch-table entries) by which callers look the layer functions up, so a
traced op runs the same code as an untraced one.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Optional

import layers


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: Optional[int]
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; ``op_id`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.op_id)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, name, fn, counter=None):
        """Callable that runs ``fn`` inside a span named ``name``.

        ``counter(result, args, kwargs)`` may return counts stored on the span.
        """

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:   # outside the span: counting is overhead
                rec.counts.update(counter(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def to_json(self):
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op_id": s.op_id, "counts": s.counts}
                for s in self.spans]


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    Children of one span may not overlap in a single thread, but the union
    of their intervals is taken anyway so the result never goes negative.
    """
    children = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def per_op_totals(spans, op_id):
    """Self time per span name and summed counts for one op."""
    selfs = self_times(spans)
    times, counts = {}, {}
    for s, st in zip(spans, selfs):
        if s.op_id != op_id:
            continue
        times[s.name] = times.get(s.name, 0.0) + st
        for key, val in s.counts.items():
            counts[key] = counts.get(key, 0) + val
    return times, counts


@contextlib.contextmanager
def install(tracer, targets=None):
    """Replace each layer target with a traced wrapper; restore on exit."""
    saved = []
    try:
        for span_name, holder, attr, counter in (targets or layers.targets()):
            if isinstance(holder, dict):
                orig = holder[attr]
                saved.append((holder, attr, orig))
                holder[attr] = tracer.wrap(span_name, orig, counter)
            else:
                orig = getattr(holder, attr)
                saved.append((holder, attr, orig))
                setattr(holder, attr, tracer.wrap(span_name, orig, counter))
        yield tracer
    finally:
        for holder, attr, orig in reversed(saved):
            if isinstance(holder, dict):
                holder[attr] = orig
            else:
                setattr(holder, attr, orig)
