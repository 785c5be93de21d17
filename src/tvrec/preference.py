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
each row's score is the sum of its products ``vec[idx] * weights``, with
``vec`` the user's vector densified, added in the order of numpy's pairwise
sum. The embeddings are stored transposed, one array per padded position, so
:meth:`ItemIndex.dots` scores every row with about one whole-array
operation per position (:func:`row_sums`); a batch of rows is summed row by
row by numpy itself, which gives the same bits.

Vectors are CSR rows (:class:`tvrec.arrays.Rows`) of dimension codes, in
order of first appearance over the mean's items, and float64 weights.
The scoring mode is data, not a flag: a model without slot vectors scores
every program against the global vector, which is global scoring.
:func:`global_view` drops the slot vectors of a time-aware model to serve
global scoring from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .arrays import Rows, sorted_index
from .datamodel import TensorCells
from .errors import DataError


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
    scoring and stored transposed, with the rows grouped by start slot.

    ``idx`` and ``weights`` are (width, rows): row ``r``'s dimensions are
    ``idx[:, r]`` and its weights ``weights[:, r]``; pad cells carry weight 0,
    so they never contribute to a dot product. The rows that start in slot
    ``s`` are ``slot_rows[slot_ptr[s - 1]:slot_ptr[s]]``, ascending.
    """

    idx: np.ndarray
    weights: np.ndarray
    slot_rows: np.ndarray
    slot_ptr: np.ndarray

    def dots(self, vec: np.ndarray) -> np.ndarray:
        """Every row's score against ``vec``, one densified vector: the
        products of each padded column summed by :func:`row_sums`."""
        products = np.take(vec, self.idx)
        products *= self.weights
        return row_sums(products)


def row_sums(cols: np.ndarray) -> np.ndarray:
    """``cols.T.sum(axis=1)``, bit for bit: numpy's pairwise sum over each
    row of ``cols.T``, done with whole-column operations.

    Below 8 columns it adds them in turn to 0.0. Up to 128 it keeps 8
    accumulators, each adding every 8th column, joins them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and adds the
    columns past the last multiple of 8 in turn. Above 128 it sums the first
    half, cut down to a multiple of 8, and the rest separately, and adds the
    two.
    """
    width = len(cols)
    if width < 8:
        total = np.zeros(cols.shape[1:])
        for col in cols:
            total += col
        return total
    if width > 128:
        half = width // 2
        half -= half % 8
        return row_sums(cols[:half]) + row_sums(cols[half:])
    whole = width - width % 8
    acc = cols[:8]
    for i in range(8, whole, 8):
        acc = acc + cols[i : i + 8]
    acc = acc[0::2] + acc[1::2]  # the pairs (r0 + r1), (r2 + r3), ...
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for col in cols[whole:]:
        total += col
    return total


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


def build(cells: TensorCells, embeddings: Rows) -> Preferences:
    """Build per-user global and per-slot preference vectors from the
    interaction tensor and the embeddings, row ``p`` of ``embeddings`` being
    program code ``p``'s.

    Membership in a user's item set means any positive count; repeated
    viewing of one program does not up-weight it (distinct-item semantics).
    A mean adds its items in id order, so the result is independent of log
    ordering, bit for bit. Users come in name order, each user's slots
    ascending.
    """
    lacking = cells.program_names[len(embeddings.ptr) - 1 :]
    if lacking:
        raise DataError(f"{len(lacking)} program(s) lack embeddings: {', '.join(lacking[:10])}")
    by_name = sorted(range(len(cells.users)), key=cells.users.__getitem__)
    by_id = np.array(sorted(range(len(cells.program_names)), key=cells.program_names.__getitem__), dtype=np.int64)
    user = np.repeat(np.argsort(by_name), np.diff(cells.ptr))
    item = np.argsort(by_id)[cells.program]
    # The distinct (group, item) pairs, ascending, each packed into one int64.
    n_items, n_slots = len(by_id), int(cells.slot.max(initial=0)) + 1
    pairs = np.unique(user * n_items + item)
    global_vecs = _means(pairs // n_items, by_id[pairs % n_items], embeddings)
    pairs = np.unique((user * n_slots + cells.slot) * n_items + item)
    groups, group = np.unique(pairs // n_items, return_inverse=True)
    return Preferences(
        users=tuple(cells.users[i] for i in by_name),
        global_vecs=global_vecs,
        slot_ptr=np.searchsorted(groups // n_slots, np.arange(len(by_name) + 1)),
        slots=groups % n_slots,
        slot_vecs=_means(group, by_id[pairs % n_items], embeddings),
    )


def _means(group: np.ndarray, item: np.ndarray, embeddings: Rows) -> Rows:
    """Row ``g``: the mean of the embeddings of the items paired with group
    ``g``. ``group`` ascends from 0 and skips no group. A mean adds its items'
    entries in pair and row order, as a sum of Python floats does, and lists
    its dimensions in order of first appearance."""
    dims = int(embeddings.col.max(initial=0)) + 1
    inv = 1.0 / np.bincount(group)
    sizes, cols, vals = [], [], []
    # Blocks of whole groups, about 2**14 pairs each, bound the working arrays.
    cuts = np.unique([0, *np.searchsorted(group, group[2**14 :: 2**14]), len(group)]).tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        entries = embeddings.take(item[lo:hi])
        key = np.repeat(group[lo:hi], np.diff(entries.ptr)) * dims + entries.col
        key, first, into = np.unique(key, return_index=True, return_inverse=True)
        acc = np.zeros(len(key))
        np.add.at(acc, into, entries.val)  # ufunc.at adds in index order: entry order
        by_first = np.argsort(first)
        key, acc = key[by_first], acc[by_first]
        sizes.append(np.bincount(key // dims - group[lo], minlength=group[hi - 1] - group[lo] + 1))
        cols.append((key % dims).astype(embeddings.col.dtype))
        vals.append(acc * inv[key // dims])
    ptr = np.zeros(len(inv) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=ptr[1:])
    return Rows(ptr, np.concatenate(cols), np.concatenate(vals))


def global_view(model: PreferenceModel) -> PreferenceModel:
    """The model without its slot vectors, which scores globally."""
    p = model.prefs
    no_slots = p._replace(
        slot_ptr=np.zeros_like(p.slot_ptr),
        slots=p.slots[:0],
        slot_vecs=Rows(p.slot_vecs.ptr[:1], p.slot_vecs.col[:0], p.slot_vecs.val[:0]),
    )
    return replace(model, prefs=no_slots)
