"""Interval arithmetic and span parenting of the traced run."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Recorder, Span, overlap, self_times, union_length


def span(id, start, end, parent=None, thread=1, name="x"):
    return Span(id, name, start, end, parent, 0, thread)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 4)]) == 3.0
    assert union_length([(0, 3), (1, 2), (2.5, 5)]) == 5.0
    assert union_length([(4, 6), (0, 1), (1, 2)]) == 4.0


def test_self_time_nested_and_overlapping_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),
        span(3, 2.0, 5.0, parent=1, thread=2),  # overlaps its sibling
        span(4, 8.0, 12.0, parent=1, thread=3),  # runs past its parent
        span(5, 1.5, 2.5, parent=2),  # grandchild: only its own parent loses it
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(4.0)
    assert st[5] == pytest.approx(1.0)


def test_self_times_sum_to_root_duration_when_serial():
    spans = [span(1, 0, 10), span(2, 1, 4, 1), span(3, 2, 3, 2), span(4, 5, 9, 1)]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_overlap_of_synthetic_threads():
    four = [span(i, 0.0, 4.0, thread=i) for i in range(4)]
    assert overlap(four) == pytest.approx(4.0)
    staggered = [span(1, 0, 2, thread=1), span(2, 1, 3, thread=2), span(3, 5, 6, thread=1)]
    assert overlap(staggered) == pytest.approx(5.0 / 4.0)
    assert overlap([span(1, 0, 1), span(2, 1, 2)]) == pytest.approx(1.0)
    assert overlap([]) == 0.0


def test_pool_spans_attach_to_root():
    rec = Recorder()
    leaf = rec.wrap("leaf", lambda x: x * 2)

    def body():
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(leaf, range(6)))

    main = rec.wrap("main", body, root=True)
    assert main() == [0, 2, 4, 6, 8, 10]
    root = next(s for s in rec.spans if s.name == "main")
    leaves = [s for s in rec.spans if s.name == "leaf"]
    assert len(leaves) == 6
    assert all(s.parent == root.id for s in leaves)
    assert all(s.thread != root.thread for s in leaves)
    assert rec.root is None
    assert rec.stack() == []


def test_nested_parent_and_restore():
    class Holder:
        @staticmethod
        def inner():
            return "inner"

    rec = Recorder()
    original = Holder.inner
    rec.patch(Holder, "inner", rec.wrap("inner", Holder.inner))
    outer = rec.wrap("outer", lambda: Holder.inner())
    assert outer() == "inner"
    rec.restore()
    assert Holder.inner is original
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].thread == threading.get_ident()


def test_span_recorded_when_call_raises():
    rec = Recorder()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.wrap("boom", boom)()
    assert [s.name for s in rec.spans] == ["boom"]
    assert rec.stack() == []
