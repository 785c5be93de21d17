"""Per-user viewing-behavior distributions over (slot, channel).

A program's behavior matching score is the user's maximum viewing probability
over the program's slot span on its channel; :mod:`tvrec.ranker` computes it
for every candidate at once from the distribution built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import Rows, sorted_index
from .datamodel import TensorCells
from .errors import DataError


class UserBehavior(NamedTuple):
    """One user's distribution: probability ``probs[j]`` at flat grid cell ``cells[j]``."""

    user: str
    cells: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True, eq=False)
class Behavior:
    """Every user's viewing probability distribution over (slot, channel)
    pairs, as one CSR row per user.

    ``users`` are sorted, and row ``i`` of ``rows`` is user ``users[i]``'s:
    its columns are flat cells ``(slot - 1) * len(channels) + channel code``
    of the slots-by-channels grid, ascending, and its values positive
    probabilities that sum to 1.
    """

    users: tuple[str, ...]
    channels: tuple[str, ...]
    rows: Rows

    def of(self, user: str) -> UserBehavior:
        """``user``'s row; raises :class:`DataError` for a user without one."""
        i = sorted_index(self.users, user)
        if i is None:
            raise DataError(f"user {user!r} has no training interactions")
        return UserBehavior(user, *self.rows.row(i))

    def entries(self, user: str) -> list[tuple[int, str, float]]:
        """``user``'s ``(slot, channel, probability)`` triples in cell order:
        by slot, then channel code, which is channel order when ``channels``
        is sorted, as a prepared dataset's are."""
        cells, probs = self.of(user)[1:]
        ncols = len(self.channels)
        return [
            (cell // ncols + 1, self.channels[cell % ncols], p) for cell, p in zip(cells.tolist(), probs.tolist())
        ]


def behavior_matrix(cells: TensorCells) -> Behavior:
    """Every user's behavior matrix, over the grid of ``cells.channel_names``.

    Each user's counts are marginalized over items and normalized to a
    probability distribution over (slot, channel): an integer count over an
    integer total, so each probability is the correctly rounded quotient.
    Raises :class:`DataError` for a user without cells.

    The cells are read as they come, in the name order of
    :class:`tvrec.datamodel.TensorCells`: users sorted, and each user's cells
    by slot, then channel code, so their flat cells ascend and a (slot,
    channel) pair's cells are adjacent.
    """
    n = len(cells.users)
    lens = np.diff(cells.ptr)
    empty = np.flatnonzero(lens == 0)
    if len(empty):
        raise DataError(f"user {cells.users[empty[0]]!r} has no training interactions")
    flat = (cells.slot - 1) * len(cells.channel_names) + cells.channel
    new_cell = np.ones(len(flat), dtype=bool)
    new_cell[1:] = flat[1:] != flat[:-1]
    new_cell[cells.ptr[:-1]] = True
    starts = np.flatnonzero(new_cell)
    sums = np.add.reduceat(cells.count, starts) if len(starts) else cells.count[:0]
    ptr = np.searchsorted(starts, cells.ptr).astype(np.int64)
    totals = np.add.reduceat(sums, ptr[:-1]) if n else sums
    return Behavior(
        users=cells.users,
        channels=cells.channel_names,
        rows=Rows(ptr, flat[starts], sums / np.repeat(totals, np.diff(ptr))),
    )
