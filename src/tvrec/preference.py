"""User preference embeddings (global and time-aware).

A user's global preference vector is the plain arithmetic mean of the
embeddings of the distinct programs they watched in training. The time-aware
variant keeps one mean per (user, slot) over the programs watched in that
slot, capturing accounts shared by several household members with different
habits; slots without history fall back to the global vector so that every
program can be scored. A program's preference matching score is the dot
product of its embedding with the user vector (in time-aware mode, the one for
the slot in which the program starts); :mod:`tvrec.ranker` computes it over
the candidate set. A time-aware model also serves global scoring through
:func:`global_view`, since its global means are the global model's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .datamodel import InteractionTensor
from .errors import DataError
from .textenc import Embedding, mean_embedding

MODES = ("global", "time-aware")


@dataclass(frozen=True)
class PreferenceModel:
    mode: str
    global_prefs: Mapping[str, Embedding]
    slot_prefs: Mapping[str, Mapping[int, Embedding]]
    item_embeddings: Mapping[str, Embedding]


def build(
    tensor: InteractionTensor,
    embeddings: Mapping[str, Embedding],
    mode: str = "global",
) -> PreferenceModel:
    """Build per-user preference vectors from the interaction tensor.

    Membership in a user's item set means any positive count; repeated
    viewing of one program does not up-weight it (distinct-item semantics).
    Time-aware mode additionally builds the per-slot means and always keeps
    the global means as the fallback. Items are averaged in sorted order so
    the result is independent of log ordering, bit for bit.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    referenced = {item for cells in tensor.by_user.values() for (item, _, _) in cells}
    missing = sorted(referenced - embeddings.keys())
    if missing:
        shown = ", ".join(missing[:10])
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise DataError(f"{len(missing)} tensor item(s) lack embeddings: {shown}{more}")

    global_prefs: dict[str, Embedding] = {}
    slot_prefs: dict[str, dict[int, Embedding]] = {}
    for user, cells in tensor.by_user.items():
        items = sorted({item for (item, _, _) in cells})
        global_prefs[user] = mean_embedding(embeddings[i] for i in items)
        if mode == "time-aware":
            by_slot: dict[int, set[str]] = {}
            for (item, slot, _) in cells:
                by_slot.setdefault(slot, set()).add(item)
            slot_prefs[user] = {
                slot: mean_embedding(embeddings[i] for i in sorted(slot_items))
                for slot, slot_items in sorted(by_slot.items())
            }
    return PreferenceModel(
        mode=mode,
        global_prefs=global_prefs,
        slot_prefs=slot_prefs,
        item_embeddings=dict(embeddings),
    )



def global_view(model: PreferenceModel) -> PreferenceModel:
    """The global-mode model held in a time-aware one: its global means and
    item embeddings, without the slot vectors."""
    return PreferenceModel(
        mode="global",
        global_prefs=model.global_prefs,
        slot_prefs={},
        item_embeddings=model.item_embeddings,
    )
