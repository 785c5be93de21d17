"""User preference embeddings (global and time-aware).

A user's global preference vector is the plain arithmetic mean of the
embeddings of the distinct programs they watched in training. The time-aware
variant adds one mean per (user, slot) over the programs watched in that
slot, capturing accounts shared by several household members with different
habits. A program's preference matching score is the dot product of its
embedding with the user's vector for the slot in which the program starts,
or with the global vector when the user has no vector for that slot.
:mod:`tvrec.ranker` computes it with one rule for both rankers that read it:
over the candidate embeddings zero-padded to one width (:class:`ItemIndex`),
each row's score is ``(vec[idx] * weights).sum()`` with ``vec`` the user's
vector densified.

Vectors are CSR rows (:class:`tvrec.arrays.Rows`) of dimension codes, in the
order :func:`tvrec.textenc.mean_embedding` made them, and float64 weights.
The scoring mode is data, not a flag: a model without slot vectors scores
every program against the global vector, which is global scoring.
:func:`global_view` drops the slot vectors of a time-aware model to serve
global scoring from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .arrays import Rows, sorted_index
from .datamodel import TensorCells
from .errors import DataError
from .textenc import Embedding, mean_embedding


class Preferences(NamedTuple):
    """Every user's preference vectors as CSR rows over dimension codes.

    ``users`` are sorted; row ``i`` of ``global_vecs`` is user ``users[i]``'s
    global vector. Their slot vectors are rows ``slot_ptr[i]:slot_ptr[i + 1]``
    of ``slot_vecs``, for the ascending slots of the same slice of ``slots``.
    """

    users: tuple[str, ...]
    global_vecs: Rows
    slot_ptr: np.ndarray
    slots: np.ndarray
    slot_vecs: Rows


@dataclass(frozen=True, eq=False)
class ItemIndex:
    """Candidate embeddings in candidate row order, zero-padded for batched
    scoring, with the rows grouped by start slot.

    Row ``r``'s dimensions are ``idx[r]`` and its weights ``weights[r]``; pad
    cells carry weight 0, so they never contribute to a dot product. The rows
    that start in slot ``s`` are ``slot_rows[slot_ptr[s - 1]:slot_ptr[s]]``,
    ascending.
    """

    idx: np.ndarray
    weights: np.ndarray
    slot_rows: np.ndarray
    slot_ptr: np.ndarray


@dataclass(frozen=True, eq=False)
class PreferenceModel:
    """Per-user preference vectors plus the candidate embeddings they score,
    over ``dims`` dimensions.

    A slot without a vector, or a user without any, falls back to the global
    vector. With no slot vectors at all the model scores globally.
    """

    prefs: Preferences
    dims: int
    items: ItemIndex

    def user_row(self, user: str) -> int:
        """``user``'s row; raises :class:`DataError` for a user without one."""
        i = sorted_index(self.prefs.users, user)
        if i is None:
            raise DataError(f"user {user!r} is not in the preference model")
        return i


def build(cells: TensorCells, embeddings: Mapping[str, Embedding]) -> Preferences:
    """Build per-user global and per-slot preference vectors from the
    interaction tensor, walking each user's cells in user name order.

    Membership in a user's item set means any positive count; repeated
    viewing of one program does not up-weight it (distinct-item semantics).
    Items are averaged in id order so the result is independent of log
    ordering, bit for bit. Each mean is appended to the rows as it is made;
    slots ascend.
    """
    missing = sorted(cells.programs() - embeddings.keys())
    if missing:
        shown = ", ".join(missing[:10])
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise DataError(f"{len(missing)} tensor item(s) lack embeddings: {shown}{more}")

    items = np.array(cells.program_names, dtype=object)[cells.program].tolist()
    slots = cells.slot.tolist()
    ptr = cells.ptr.tolist()
    global_ptr, global_col, global_val = [0], [], []
    vec_ptr, vec_col, vec_val = [0], [], []
    slot_ptr, slot_of = [0], []

    def append(vec: Embedding, row_ptr: list[int], col: list[int], val: list[float]) -> None:
        col.extend(vec)
        val.extend(vec.values())
        row_ptr.append(len(col))

    by_name = sorted(range(len(cells.users)), key=cells.users.__getitem__)
    for i in by_name:
        lo, hi = ptr[i], ptr[i + 1]
        user_items = sorted(set(items[lo:hi]))
        append(mean_embedding(embeddings[p] for p in user_items), global_ptr, global_col, global_val)
        by_slot: dict[int, set[str]] = {}
        for item, slot in zip(items[lo:hi], slots[lo:hi]):
            by_slot.setdefault(slot, set()).add(item)
        for slot, slot_items in sorted(by_slot.items()):
            append(mean_embedding(embeddings[p] for p in sorted(slot_items)), vec_ptr, vec_col, vec_val)
            slot_of.append(slot)
        slot_ptr.append(len(slot_of))

    def rows(row_ptr: list[int], col: list[int], val: list[float]) -> Rows:
        return Rows(np.array(row_ptr, dtype=np.int64), np.array(col, dtype=np.int64), np.array(val))

    return Preferences(
        users=tuple(cells.users[i] for i in by_name),
        global_vecs=rows(global_ptr, global_col, global_val),
        slot_ptr=np.array(slot_ptr, dtype=np.int64),
        slots=np.array(slot_of, dtype=np.int64),
        slot_vecs=rows(vec_ptr, vec_col, vec_val),
    )


def embedding_rows(vecs: Iterable[Embedding]) -> Rows:
    """Embeddings as CSR rows, one per vector, dims in their dict order."""
    vecs = list(vecs)
    ptr = np.cumsum([0, *map(len, vecs)], dtype=np.int64)
    n = int(ptr[-1])
    return Rows(
        ptr,
        np.fromiter(chain.from_iterable(vecs), dtype=np.int64, count=n),
        np.fromiter(chain.from_iterable(map(dict.values, vecs)), dtype=np.float64, count=n),
    )


def global_view(model: PreferenceModel) -> PreferenceModel:
    """The model without its slot vectors, which scores globally."""
    p = model.prefs
    no_slots = p._replace(
        slot_ptr=np.zeros_like(p.slot_ptr),
        slots=p.slots[:0],
        slot_vecs=Rows(p.slot_vecs.ptr[:1], p.slot_vecs.col[:0], p.slot_vecs.val[:0]),
    )
    return replace(model, prefs=no_slots)
