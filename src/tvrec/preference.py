"""User preference embeddings (global and time-aware).

A user's global preference vector is the plain arithmetic mean of the
embeddings of the distinct programs they watched in training. The time-aware
variant adds one mean per (user, slot) over the programs watched in that
slot, capturing accounts shared by several household members with different
habits. A program's preference matching score is the dot product of its
embedding with the user's vector for the slot in which the program starts,
or with the global vector when the user has no vector for that slot;
:mod:`tvrec.ranker` computes it over the candidate set.

The scoring mode is therefore data, not a flag: a model without slot vectors
scores every program against the global vector, which is global scoring.
:func:`global_view` drops the slot vectors of a time-aware model to serve
global scoring from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .datamodel import TensorCells
from .errors import DataError
from .textenc import Embedding, mean_embedding


@dataclass(frozen=True)
class PreferenceModel:
    """Per-user preference vectors plus the item embeddings they score.

    ``slot_prefs`` maps a user to their per-slot vectors; a slot without one,
    or a user without any, falls back to ``global_prefs``. With no slot
    vectors at all the model scores globally.
    """

    global_prefs: Mapping[str, Embedding]
    slot_prefs: Mapping[str, Mapping[int, Embedding]]
    item_embeddings: Mapping[str, Embedding]


def build(cells: TensorCells, embeddings: Mapping[str, Embedding]) -> PreferenceModel:
    """Build per-user global and per-slot preference vectors from the
    interaction tensor, walking each user's cells.

    Membership in a user's item set means any positive count; repeated
    viewing of one program does not up-weight it (distinct-item semantics).
    Items are averaged in id order so the result is independent of log
    ordering, bit for bit. Users keep the tensor's order and slots ascend.
    """
    missing = sorted(cells.programs() - embeddings.keys())
    if missing:
        shown = ", ".join(missing[:10])
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise DataError(f"{len(missing)} tensor item(s) lack embeddings: {shown}{more}")

    items = np.array(cells.program_names, dtype=object)[cells.program].tolist()
    slots = cells.slot.tolist()
    ptr = cells.ptr.tolist()
    global_prefs: dict[str, Embedding] = {}
    slot_prefs: dict[str, dict[int, Embedding]] = {}
    for user, lo, hi in zip(cells.users, ptr, ptr[1:]):
        global_prefs[user] = mean_embedding(embeddings[i] for i in sorted(set(items[lo:hi])))
        by_slot: dict[int, set[str]] = {}
        for item, slot in zip(items[lo:hi], slots[lo:hi]):
            by_slot.setdefault(slot, set()).add(item)
        slot_prefs[user] = {
            slot: mean_embedding(embeddings[i] for i in sorted(slot_items))
            for slot, slot_items in sorted(by_slot.items())
        }
    return PreferenceModel(
        global_prefs=global_prefs,
        slot_prefs=slot_prefs,
        item_embeddings=dict(embeddings),
    )


def global_view(model: PreferenceModel) -> PreferenceModel:
    """The model without its slot vectors, which scores globally."""
    return replace(model, slot_prefs={})
