"""In-memory span recorder and the interval arithmetic behind per-layer metrics.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter``), the id of the span that caused it, the id of the run
(one pass over a workload's invocations) and the thread it ran on.  Spans are
kept in a list and read after the run; nothing is written while it runs.

Wrapping happens from outside the program: :meth:`Recorder.patch` replaces a
module or class attribute with a traced wrapper and :meth:`Recorder.restore`
puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children may overlap one another (spans from a thread pool); the covered
    part is the union of their intervals clipped to the parent's interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - union_length(clipped)
    return out


def overlap(spans) -> float:
    """Sum of span durations over the length of their union (1 when serial)."""
    covered = union_length((s.start, s.end) for s in spans)
    if covered <= 0.0:
        return 0.0
    return sum(s.duration for s in spans) / covered


class Recorder:
    """Records spans and counters for wrapped functions.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    whose stack is empty (a worker of a thread pool) takes :attr:`root` as its
    parent, so pool work attaches to the invocation that submitted it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self.run = 0
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def stack(self) -> list:
        """Open spans of the calling thread, innermost last."""
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self) -> Span | None:
        st = self.stack()
        return st[-1] if st else None

    def count(self, key: str, amount: float = 1.0):
        with self._lock:
            self.counters[(self.run, key)] += amount

    def peak(self, key: str, value: float):
        with self._lock:
            k = (self.run, key)
            self.counters[k] = max(self.counters[k], value)

    def wrap(self, name: str, fn, on_open=None, on_close=None, root=False):
        """Traced version of ``fn``.

        ``on_open(span, args, kwargs)`` runs inside the span before the call;
        ``on_close(span, args, kwargs, result)`` runs after it, outside the
        timed interval.  A ``root`` span becomes the parent of spans opened
        on threads with no open span while it is open.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self.stack()
            parent = st[-1].id if st else self.root
            span = Span(next(self._ids), name, 0.0, 0.0, parent, self.run,
                        threading.get_ident())
            if root:
                self.root = span.id
            st.append(span)
            if on_open is not None:
                on_open(span, args, kwargs)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                st.pop()
                if root:
                    self.root = None
                self.spans.append(span)
            if on_close is not None:
                on_close(span, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
