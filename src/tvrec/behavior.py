"""Per-user viewing-behavior distributions over (slot, channel).

A program's behavior matching score is the user's maximum viewing probability
over the program's slot span on its channel; :mod:`tvrec.ranker` computes it
for every candidate at once from the distribution built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .datamodel import TensorCells
from .errors import DataError


@dataclass(frozen=True)
class BehaviorMatrix:
    """A user's viewing probability distribution over (slot, channel) pairs.

    Stored sparsely; entries are positive and sum to 1.
    """

    user: str
    probs: Mapping[tuple[int, str], float]


def behavior_matrix(cells: TensorCells) -> dict[str, BehaviorMatrix]:
    """Every user's behavior matrix, by user name in sorted order.

    Each user's counts are marginalized over items and normalized to a
    probability distribution over (slot, channel), keyed in the order of the
    user's cells. Raises :class:`DataError` for a user without cells.
    """
    keys = list(zip(cells.slot.tolist(), np.array(cells.channel_names, dtype=object)[cells.channel].tolist()))
    counts = cells.count.tolist()
    ptr = cells.ptr.tolist()
    matrices = {}
    for i in sorted(range(len(cells.users)), key=cells.users.__getitem__):
        user, lo, hi = cells.users[i], ptr[i], ptr[i + 1]
        if lo == hi:
            raise DataError(f"user {user!r} has no training interactions")
        marginal: dict[tuple[int, str], int] = {}
        for key, count in zip(keys[lo:hi], counts[lo:hi]):
            marginal[key] = marginal.get(key, 0) + count
        total = sum(marginal.values())
        matrices[user] = BehaviorMatrix(user=user, probs={k: v / total for k, v in marginal.items()})
    return matrices
