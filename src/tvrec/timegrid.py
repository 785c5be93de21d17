"""Projection of timestamps and broadcast spans onto the weekly time-slot grid.

The week is divided into ``n`` equal slots starting Monday 00:00 local time.
Slot indices are 1-based. Slot intervals are left-closed, right-open: a
timestamp exactly on a boundary belongs to the slot that starts there.
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_WEEK = 604_800

# The Unix epoch (1970-01-01) is a Thursday; the Monday before it is
# 1969-12-29 00:00 UTC, i.e. epoch - 3 days.
_EPOCH_TO_MONDAY = 3 * 86_400

SlotIndex = int


@dataclass(frozen=True)
class TimeGrid:
    """Weekly grid of ``n`` equal time slots in a fixed local timezone.

    ``utc_offset`` is the fixed offset (seconds east of UTC) applied to every
    timestamp before projection; viewing habits are local-time phenomena while
    log timestamps are UTC.
    """

    n: int = 672
    utc_offset: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or SECONDS_PER_WEEK % self.n != 0:
            raise ValueError(f"n must divide {SECONDS_PER_WEEK} exactly, got {self.n}")

    @property
    def slot_len(self) -> int:
        """Slot duration in seconds."""
        return SECONDS_PER_WEEK // self.n


def _abs_slot(t: int, grid: TimeGrid) -> int:
    # Unbounded slot counter; consecutive across week boundaries.
    return (t + grid.utc_offset + _EPOCH_TO_MONDAY) // grid.slot_len


def slot_of(t: int, grid: TimeGrid) -> SlotIndex:
    """Return the 1-based weekly slot containing UTC timestamp ``t``."""
    return _abs_slot(t, grid) % grid.n + 1


def slots_of_span(s: int, e: int, grid: TimeGrid) -> list[SlotIndex]:
    """Return the chronological slot sequence touched by the span ``[s, e]``.

    Wraps modulo ``n`` across the week boundary, and lists each slot once: a
    span just short of a week that ends back in its first slot yields all
    ``n`` slots, from the first. A zero-length span yields the single slot
    containing ``s``. Spans of a week or longer would touch every slot and
    signal malformed metadata, so they are rejected.
    """
    if s > e:
        raise ValueError(f"span start {s} is after end {e}")
    if e - s >= SECONDS_PER_WEEK:
        raise ValueError(f"span of {e - s}s covers the whole week; metadata is malformed")
    first = _abs_slot(s, grid)
    n = grid.n
    last = min(_abs_slot(e, grid), first + n - 1)
    return [a % n + 1 for a in range(first, last + 1)]
