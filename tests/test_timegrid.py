import random

import numpy as np
import pytest

from oracles import slot_of, slots_of_span
from tvrec.timegrid import SECONDS_PER_WEEK, TimeGrid, slot_column, span_column

MONDAY = 1_554_076_800  # 2019-04-01 00:00:00 UTC, a Monday


def slot(t, grid):
    """``slot_of(t, grid)``, checked against `slot_column` of the one timestamp."""
    want = slot_of(t, grid)
    assert slot_column(np.array([t], dtype=np.int64), grid).tolist() == [want]
    return want


def column_span(s, e, grid):
    """`span_column` of one span, as a list."""
    ptr, slots = span_column(np.array([s], dtype=np.int64), np.array([e], dtype=np.int64), grid)
    assert ptr.tolist() == [0, len(slots)]
    return slots.tolist()


def span(s, e, grid):
    """``slots_of_span(s, e, grid)``, checked against `span_column` of the one span."""
    want = slots_of_span(s, e, grid)
    assert column_span(s, e, grid) == want
    return want


def test_hourly_grid_monday_0530_is_slot_6():
    grid = TimeGrid(n=168)
    assert slot(MONDAY + 5 * 3600 + 30 * 60, grid) == 6


def test_quarter_hour_grid_monday_midnight_is_slot_1():
    assert slot(MONDAY, TimeGrid(n=672)) == 1


def test_quarter_hour_grid_monday_0530_is_slot_23():
    # floor(330 min / 15 min) = 22 zero-based
    assert slot(MONDAY + 330 * 60, TimeGrid(n=672)) == 23


def test_slot_boundaries_are_left_closed():
    grid = TimeGrid(n=672)
    assert slot(MONDAY + 900, grid) == 2
    assert slot(MONDAY + 899, grid) == 1


def test_utc_offset_projects_local_wall_clock():
    # 23:30 UTC Sunday with +1h offset is Monday 00:30 local: slot 1 of the new week.
    grid = TimeGrid(n=168, utc_offset=3600)
    assert slot(MONDAY - 30 * 60, grid) == 1
    assert slot(MONDAY - 30 * 60, TimeGrid(n=168)) == 168


def test_span_within_one_morning():
    grid = TimeGrid(n=672)
    assert span(MONDAY + 310 * 60, MONDAY + 340 * 60, grid) == [21, 22, 23]


def test_span_wraps_week_boundary():
    grid = TimeGrid(n=672)
    assert span(MONDAY - 10 * 60, MONDAY + 10 * 60, grid) == [672, 1]
    # On a daily grid, Saturday noon to Tuesday noon.
    assert span(MONDAY - 36 * 3600, MONDAY + 36 * 3600, TimeGrid(n=7)) == [6, 7, 1, 2]


def test_span_on_slot_boundaries_takes_the_slot_its_end_opens():
    grid = TimeGrid(n=24)  # 7-hour slots
    assert span(MONDAY, MONDAY + 7 * 3600, grid) == [1, 2]
    assert span(MONDAY, MONDAY + 7 * 3600 - 1, grid) == [1]


def test_span_under_a_utc_offset():
    # Sunday 22:00-23:30 UTC is Monday 00:00-01:30 local at +2h.
    assert span(MONDAY - 2 * 3600, MONDAY - 30 * 60, TimeGrid(n=168, utc_offset=7200)) == [1, 2]
    assert span(MONDAY - 2 * 3600, MONDAY - 30 * 60, TimeGrid(n=168)) == [167, 168]


def test_zero_length_span_yields_single_slot():
    assert span(MONDAY, MONDAY, TimeGrid(n=672)) == [1]


def test_span_end_before_start_rejected():
    for form in (slots_of_span, column_span):
        with pytest.raises(ValueError):
            form(MONDAY + 1, MONDAY, TimeGrid())


def test_week_long_span_rejected():
    for form in (slots_of_span, column_span):
        with pytest.raises(ValueError):
            form(MONDAY, MONDAY + SECONDS_PER_WEEK, TimeGrid())


@pytest.mark.parametrize("n", [0, 11, 99, 604801])
def test_grid_size_must_divide_week(n):
    with pytest.raises(ValueError):
        TimeGrid(n=n)


def test_slot_len():
    assert TimeGrid(n=672).slot_len == 900
    assert TimeGrid(n=168).slot_len == 3600


def test_round_trip_any_time_inside_slot():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.choice((24, 168, 672))
        offset = rng.choice((0, 3600, 9 * 3600, -5 * 3600))
        grid = TimeGrid(n=n, utc_offset=offset)
        want = rng.randint(1, n)
        within = rng.randrange(grid.slot_len)
        week = rng.randrange(-3, 3)
        t = MONDAY + week * SECONDS_PER_WEEK + (want - 1) * grid.slot_len + within - offset
        assert slot(t, grid) == want


@pytest.mark.parametrize("n", [7, 24, 672])
@pytest.mark.parametrize("offset", [0, 5400, -9 * 3600])
def test_span_column_equals_the_scalar_spans_row_for_row(n, offset):
    # Random spans, plus the edges: just short of a week from inside a slot
    # (the span ends back in its first slot), spans that wrap the week, and
    # starts and ends exactly on slot boundaries.
    grid = TimeGrid(n=n, utc_offset=offset)
    L = grid.slot_len
    local_monday = MONDAY - offset
    rng = random.Random(n * 31 + offset)
    spans = [
        (local_monday + 1, local_monday + SECONDS_PER_WEEK),
        (local_monday + L // 2, local_monday + L // 2 + SECONDS_PER_WEEK - 1),
        (local_monday - L // 2, local_monday + L // 2),
        (local_monday - 1, local_monday),
        (local_monday, local_monday + L),
        (local_monday + L, local_monday + 3 * L),
        (local_monday + L, local_monday + 3 * L - 1),
        (local_monday, local_monday),
    ]
    for _ in range(300):
        s = MONDAY + rng.randrange(-2 * SECONDS_PER_WEEK, 2 * SECONDS_PER_WEEK)
        if rng.random() < 0.3:
            s -= (s + offset) % L  # on a boundary
        e = s + rng.choice((rng.randrange(SECONDS_PER_WEEK), rng.randrange(4) * L, SECONDS_PER_WEEK - 1))
        spans.append((s, e))
    ptr, slots = span_column(np.array([s for s, _ in spans]), np.array([e for _, e in spans]), grid)
    assert ptr.dtype == slots.dtype == np.int64
    flat, ptr = slots.tolist(), ptr.tolist()
    assert [flat[lo:hi] for lo, hi in zip(ptr, ptr[1:])] == [slots_of_span(s, e, grid) for s, e in spans]
    assert flat[: n] == list(range(1, n + 1))  # the first edge lists every slot once


def test_span_column_of_no_spans():
    ptr, slots = span_column(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), TimeGrid())
    assert ptr.tolist() == [0] and slots.tolist() == []


def test_span_endpoints_and_length_bound():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice((24, 168, 672))
        grid = TimeGrid(n=n)
        s = MONDAY + rng.randrange(2 * SECONDS_PER_WEEK)
        e = s + rng.randrange(SECONDS_PER_WEEK)
        span = slots_of_span(s, e, grid)
        assert span[0] == slot_of(s, grid)
        # A span that ends back in its first slot lists that slot once, first.
        assert span[-1] == slot_of(e, grid) or (len(span) == n and span[0] == slot_of(e, grid))
        assert len(set(span)) == len(span) <= -((e - s) // -grid.slot_len) + 1


def test_span_just_short_of_a_week_lists_every_slot_once():
    assert span(MONDAY + 1, MONDAY + SECONDS_PER_WEEK, TimeGrid(n=672)) == list(range(1, 673))
