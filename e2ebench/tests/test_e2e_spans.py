"""Span arithmetic and the tail rule (no library code involved)."""

from __future__ import annotations

import pytest

from e2ebench.spans import Tracer, self_times
from e2ebench.stats import TAIL_BEYOND, tail


def test_self_time_subtracts_the_union_of_children():
    # 0: root [0, 10]; 1, 2 overlap inside it; 3 is a later child;
    # 4 is nested in 1 and must not reduce the root again.
    start = [0.0, 1.0, 2.0, 6.0, 1.5]
    end = [10.0, 3.0, 5.0, 7.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    own = self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)  # [1, 5] and [6, 7]
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent():
    own = self_times([0.0, 2.0], [4.0, 9.0], [-1, 0])
    assert own[0] == pytest.approx(2.0)


def test_recorded_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    tracer.request_id = 7
    outer()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["outer", "inner", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert set(tracer.request) == {7}
    own = self_times(tracer.start, tracer.end, tracer.parent)
    total = tracer.end[0] - tracer.start[0]
    assert sum(own) == pytest.approx(total)
    assert min(own) >= 0.0


@pytest.mark.parametrize(
    "n, index, beyond",
    [(1, 0, 0), (10, 9, 0), (11, 0, 10), (20, 9, 10), (100, 89, 10)],
)
def test_tail_keeps_at_least_ten_samples_beyond(n, index, beyond):
    samples = [float(v) for v in range(n)][::-1]  # order must not matter
    value, level, got_beyond = tail(samples)
    assert value == float(index)
    assert got_beyond == beyond
    assert sum(s > value for s in samples) >= min(beyond, TAIL_BEYOND)
    assert level == pytest.approx((index + 1) / n)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])
