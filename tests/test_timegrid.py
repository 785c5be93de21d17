import random

import pytest

from tvrec.timegrid import SECONDS_PER_WEEK, TimeGrid, slot_of, slots_of_span

MONDAY = 1_554_076_800  # 2019-04-01 00:00:00 UTC, a Monday


def test_hourly_grid_monday_0530_is_slot_6():
    grid = TimeGrid(n=168)
    assert slot_of(MONDAY + 5 * 3600 + 30 * 60, grid) == 6


def test_quarter_hour_grid_monday_midnight_is_slot_1():
    assert slot_of(MONDAY, TimeGrid(n=672)) == 1


def test_quarter_hour_grid_monday_0530_is_slot_23():
    # floor(330 min / 15 min) = 22 zero-based
    assert slot_of(MONDAY + 330 * 60, TimeGrid(n=672)) == 23


def test_slot_boundaries_are_left_closed():
    grid = TimeGrid(n=672)
    assert slot_of(MONDAY + 900, grid) == 2
    assert slot_of(MONDAY + 899, grid) == 1


def test_utc_offset_projects_local_wall_clock():
    # 23:30 UTC Sunday with +1h offset is Monday 00:30 local: slot 1 of the new week.
    grid = TimeGrid(n=168, utc_offset=3600)
    assert slot_of(MONDAY - 30 * 60, grid) == 1
    assert slot_of(MONDAY - 30 * 60, TimeGrid(n=168)) == 168


def test_span_within_one_morning():
    grid = TimeGrid(n=672)
    assert slots_of_span(MONDAY + 310 * 60, MONDAY + 340 * 60, grid) == [21, 22, 23]


def test_span_wraps_week_boundary():
    grid = TimeGrid(n=672)
    assert slots_of_span(MONDAY - 10 * 60, MONDAY + 10 * 60, grid) == [672, 1]


def test_zero_length_span_yields_single_slot():
    assert slots_of_span(MONDAY, MONDAY, TimeGrid(n=672)) == [1]


def test_span_end_before_start_rejected():
    with pytest.raises(ValueError):
        slots_of_span(MONDAY + 1, MONDAY, TimeGrid())


def test_week_long_span_rejected():
    with pytest.raises(ValueError):
        slots_of_span(MONDAY, MONDAY + SECONDS_PER_WEEK, TimeGrid())


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
        slot = rng.randint(1, n)
        within = rng.randrange(grid.slot_len)
        week = rng.randrange(-3, 3)
        t = MONDAY + week * SECONDS_PER_WEEK + (slot - 1) * grid.slot_len + within - offset
        assert slot_of(t, grid) == slot


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
    span = slots_of_span(MONDAY + 1, MONDAY + SECONDS_PER_WEEK, TimeGrid(n=672))
    assert span == list(range(1, 673))
