"""Per-user viewing-behavior distributions over (slot, channel).

A program's behavior matching score is the user's maximum viewing probability
over the program's slot span on its channel; :mod:`tvrec.ranker` computes it
for every candidate at once from the distribution built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .datamodel import InteractionTensor
from .errors import DataError


@dataclass(frozen=True)
class BehaviorMatrix:
    """A user's viewing probability distribution over (slot, channel) pairs.

    Stored sparsely; entries are positive and sum to 1.
    """

    user: str
    probs: Mapping[tuple[int, str], float]


def behavior_matrix(tensor: InteractionTensor, user: str) -> BehaviorMatrix:
    """Marginalize the user's counts over items and normalize to a
    probability distribution over (slot, channel)."""
    cells = tensor.by_user.get(user)
    if not cells:
        raise DataError(f"user {user!r} has no training interactions")
    marginal: dict[tuple[int, str], int] = {}
    for (_, slot, channel), count in cells.items():
        key = (slot, channel)
        marginal[key] = marginal.get(key, 0) + count
    total = sum(marginal.values())
    return BehaviorMatrix(user=user, probs={k: v / total for k, v in marginal.items()})

