"""Projection of timestamps and broadcast spans onto the weekly time-slot grid.

The week is divided into ``n`` equal slots starting Monday 00:00 local time.
Slot indices are 1-based. Slot intervals are left-closed, right-open: a
timestamp exactly on a boundary belongs to the slot that starts there.

This module is the one place that knows the slot rule, and it applies it to
int64 columns: :func:`slot_column` slots each timestamp of a column, and
:func:`span_column` lists each span's slots as CSR (compressed sparse row)
arrays. Spans wrap modulo ``n`` across the week boundary and list each slot
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ranges

SECONDS_PER_WEEK = 604_800

# The Unix epoch (1970-01-01) is a Thursday; the Monday before it is
# 1969-12-29 00:00 UTC, i.e. epoch - 3 days.
_EPOCH_TO_MONDAY = 3 * 86_400


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


def _week_seconds(t: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Each UTC timestamp's local seconds since a Monday 00:00, in ``[0, 2
    weeks)``. ``t`` and the offsets are reduced modulo the week first: the
    grid's slots tile exactly one week, so no slot changes, and the sums stay
    far from the int64 limits where numpy would wrap."""
    shift = (grid.utc_offset + _EPOCH_TO_MONDAY) % SECONDS_PER_WEEK
    return t % SECONDS_PER_WEEK + shift


def slot_column(t: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """The 1-based weekly slot containing each UTC timestamp of the int64
    column ``t``."""
    return _week_seconds(t, grid) // grid.slot_len % grid.n + 1


def span_column(start: np.ndarray, end: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """The slots each span ``[start[i], end[i]]`` touches, as CSR: span
    ``i``'s slots are ``slots[ptr[i]:ptr[i + 1]]``, in chronological order,
    1-based, int64.

    Spans wrap modulo ``n`` across the week boundary, and list each slot
    once: a span just short of a week that ends back in its first slot yields
    all ``n`` slots, from the first. A zero-length span yields the single slot
    containing its start. A span that ends before it starts, or lasts a week
    or longer, would touch every slot and signal malformed metadata, so it
    raises ValueError.
    """
    length = end - start
    if np.any((length < 0) | (length >= SECONDS_PER_WEEK)):
        raise ValueError("a span ends before it starts or covers the whole week; metadata is malformed")
    s = _week_seconds(start, grid)
    first = s // grid.slot_len
    count = np.minimum((s + length) // grid.slot_len - first + 1, grid.n)
    ptr = np.zeros(len(count) + 1, dtype=np.int64)
    np.cumsum(count, out=ptr[1:])
    return ptr, ranges(first, first + count) % grid.n + 1
