"""User preference embeddings (global and time-aware).

A user's global preference vector is the plain arithmetic mean of the
embeddings of the distinct programs they watched in training. The time-aware
variant adds one mean per (user, slot) over the programs watched in that
slot, capturing accounts shared by several household members with different
habits. A program's preference matching score is the dot product of its
embedding with the user's vector for the slot in which the program starts,
or with the global vector when the user has no vector for that slot.

Every score follows one rule: each entry of the program's embedding, in
stored order, gives its weight times the vector's value for its dimension
(0.0 where the vector lacks it), and these products are added one after
another, starting from 0.0, as a plain loop over the embedding adds them.
:func:`entry_sums` adds the products, over one of two layouts of the
candidate embeddings, both stored transposed (:class:`ItemIndex`):

- :meth:`ItemIndex.dots` scores every row against one densified vector. It
  reads one (L, n_L) array pair per embedding length L, so each row's
  products are exactly its entries, and scatters the sums to their rows.
  A row with an empty embedding scores 0.0.
- :meth:`PreferenceModel.scores` scores a batch of rows, each against its
  start slot's vector. It reads the embeddings zero-padded to the widest
  one, where a batch of any rows is one gather.
  :meth:`PreferenceModel.block_scores` does the same for the rows of many
  users at once.

Products are non-negative, so starting from the first product instead of
from 0.0, or adding a pad cell's +0.0, changes no bit: a score depends
neither on the layout nor on the width the catalogue pads to.

Vectors are CSR rows (:class:`tvrec.arrays.Rows`) of dimension codes, in
order of first appearance over the mean's items, and float64 weights.
The scoring mode is data, not a flag: a model without slot vectors scores
every program against the global vector, which is global scoring.
:func:`global_view` drops the slot vectors of a time-aware model to serve
global scoring from it.
"""

from __future__ import annotations

import functools
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
    """Candidate embeddings in candidate row order, in two transposed
    layouts, with the rows grouped by start slot.

    Padded, for batches of rows: ``idx`` and ``weights`` are (width, rows),
    ``idx`` in the embeddings' dimension dtype. Row ``r``'s dimensions are
    ``idx[:, r]`` and its weights ``weights[:, r]``, in embedding order; pad
    cells carry weight 0, so they add +0.0 to a score.

    By length, for the pass over every row: ``bucket_idx[j]`` and
    ``bucket_weights[j]`` are C-contiguous (L, n_L) arrays, the intp
    dimensions and the weights of the n_L rows whose embeddings hold L
    entries, one L per bucket, ascending. Their rows, ascending within each
    bucket, are ``bucket_rows``, bucket after bucket. A row with an empty
    embedding is in no bucket.

    The rows that start in slot ``s`` are
    ``slot_rows[slot_ptr[s - 1]:slot_ptr[s]]``, ascending.
    """

    idx: np.ndarray
    weights: np.ndarray
    bucket_idx: tuple[np.ndarray, ...]
    bucket_weights: tuple[np.ndarray, ...]
    bucket_rows: np.ndarray
    slot_rows: np.ndarray
    slot_ptr: np.ndarray

    def __len__(self) -> int:
        return self.idx.shape[1]

    def dots(self, vec: np.ndarray) -> np.ndarray:
        """Every row's score against ``vec``, one densified vector: each
        length bucket summed on its own, the sums written back to their
        rows in one scatter."""
        sums = [np.zeros(0)]
        for idx, weights in zip(self.bucket_idx, self.bucket_weights):
            products = np.take(vec, idx)
            products *= weights
            sums.append(entry_sums(products))
        out = np.zeros(len(self))
        out[self.bucket_rows] = np.concatenate(sums)
        return out


def entry_sums(products: np.ndarray) -> np.ndarray:
    """The sum of each column of ``products``, a (width, rows) array, its
    entries added one after another from the first, as a plain loop adds them.

    Reducing a row-major array over its first axis adds one whole row of
    entries at a time, in order. numpy sums pairwise instead when the array
    is column-major or has a lone column, so the array is made row-major and
    a lone column is accumulated.
    """
    products = np.ascontiguousarray(products)
    if products.shape[1] == 1:
        return np.add.accumulate(products, axis=0)[-1]
    return np.add.reduce(products, axis=0)


BUFFER_FLOATS = 2**16  # the most values PreferenceModel.block_scores densifies at a time


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

    def scores(self, u: int, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The score of each of ``rows``, which start in slots ``starts``, for
        user row ``u``: against the user's vector for the slot, else the
        global one.

        The vectors go one after another, the global one last, into a buffer
        that is zeroed only where the rows read it, so the cost follows the
        rows and the user's vectors, not the user's slots times the
        dimensions; no position is read that was not zeroed or written.
        """
        p, dims, items = self.prefs, self.dims, self.items
        lo, hi = p.slot_ptr[u], p.slot_ptr[u + 1]
        glob = (hi - lo) * dims
        offsets = np.arange(0, glob, dims)
        offset_of_slot = np.full(len(items.slot_ptr), glob)  # slots 0..n_slots
        offset_of_slot[p.slots[lo:hi]] = offsets
        reads = np.take(items.idx, rows, axis=1) + offset_of_slot[starts]
        buf = np.empty(glob + dims)
        buf[reads] = 0.0
        vec_ptr = p.slot_vecs.ptr[lo : hi + 1]
        a, b = vec_ptr[0], vec_ptr[-1]
        buf[np.repeat(offsets, vec_ptr[1:] - vec_ptr[:-1]) + p.slot_vecs.col[a:b]] = p.slot_vecs.val[a:b]
        col, val = p.global_vecs.row(u)
        buf[glob + col] = val
        products = buf[reads]
        products *= np.take(items.weights, rows, axis=1)
        return entry_sums(products)

    @functools.cached_property
    def _slot_keys(self) -> np.ndarray:
        """Each slot vector's (user row, slot) key ``u * len(items.slot_ptr) +
        slot``, ascending as the vectors are stored, then a key past every
        (user, slot)."""
        p = self.prefs
        n_slots = len(self.items.slot_ptr)
        keys = np.repeat(np.arange(len(p.users)), np.diff(p.slot_ptr)) * n_slots + p.slots
        return np.append(keys, len(p.users) * n_slots)

    def block_scores(self, users: np.ndarray, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """:meth:`scores` of many users at once, the same bits: the score of
        each of ``rows``, which start in slots ``starts``, for user row
        ``users[i]``.

        Each read's vector, the user's slot vector or else their global one,
        is looked up among the sorted (user, slot) keys. Only the distinct
        vectors the reads name go into the buffer, so many of them at a time
        that it holds at most ``BUFFER_FLOATS`` values, with the rows that
        read them. It is zeroed only where those rows read it, so the cost
        follows the reads and the vectors' entries, and its size neither the
        number of vectors nor the dimensions.
        """
        p, dims, items = self.prefs, self.dims, self.items
        q = users * len(items.slot_ptr) + starts
        j = np.searchsorted(self._slot_keys, q)
        # Slot vectors are vectors 0..len(slots) - 1, and global ones follow.
        vecs, which = np.unique(np.where(self._slot_keys[j] == q, j, len(p.slots) + users), return_inverse=True)
        cut = int(np.searchsorted(vecs, len(p.slots)))
        slot_vecs, global_vecs = p.slot_vecs.take(vecs[:cut]), p.global_vecs.take(vecs[cut:] - len(p.slots))
        ptr = np.concatenate((slot_vecs.ptr, global_vecs.ptr[1:] + slot_vecs.ptr[-1]))
        val = np.concatenate((slot_vecs.val, global_vecs.val))
        per = max(BUFFER_FLOATS // dims, 1)  # vectors in the buffer at a time
        at = np.repeat(np.arange(len(vecs)) % per * dims, np.diff(ptr)) + np.concatenate((slot_vecs.col, global_vecs.col))
        by_vec = np.argsort(which, kind="stable")
        which, rows = which[by_vec], rows[by_vec]
        reads = np.take(items.idx, rows, axis=1) + which % per * dims
        firsts = np.arange(0, len(vecs) + per, per).clip(max=len(vecs))
        read_at, entry_at = np.searchsorted(which, firsts).tolist(), ptr[firsts].tolist()
        buf = np.empty(min(len(vecs), per) * dims)
        products = np.empty(reads.shape)
        for a, b, e, f in zip(read_at, read_at[1:], entry_at, entry_at[1:]):
            chunk = reads[:, a:b]
            buf[chunk] = 0.0
            buf[at[e:f]] = val[e:f]
            products[:, a:b] = buf[chunk]
        products *= np.take(items.weights, rows, axis=1)
        out = np.empty(len(rows))
        out[by_vec] = entry_sums(products)
        return out


def build(cells: TensorCells, embeddings: Rows) -> Preferences:
    """Build per-user global and per-slot preference vectors from the
    interaction tensor and the embeddings, row ``p`` of ``embeddings`` being
    program code ``p``'s.

    Membership in a user's item set means any positive count; repeated
    viewing of one program does not up-weight it (distinct-item semantics).
    The tensor keeps the name order of :class:`tvrec.datamodel.TensorCells`,
    so its users come sorted and its program codes ascend with the ids: a
    mean adds its items in id order, and the result is independent of log
    ordering, bit for bit. Users come in name order, each user's slots
    ascending.
    """
    lacking = cells.program_names[len(embeddings.ptr) - 1 :]
    if lacking:
        raise DataError(f"{len(lacking)} program(s) lack embeddings: {', '.join(lacking[:10])}")
    user = np.repeat(np.arange(len(cells.users)), np.diff(cells.ptr))
    # The distinct (group, item) pairs, ascending, each packed into one int64.
    n_items, n_slots = len(cells.program_names), int(cells.slot.max(initial=0)) + 1
    pairs = np.unique(user * n_items + cells.program)
    global_vecs = _means(pairs // n_items, pairs % n_items, embeddings)
    pairs = np.unique((user * n_slots + cells.slot) * n_items + cells.program)
    groups, group = np.unique(pairs // n_items, return_inverse=True)
    return Preferences(
        users=cells.users,
        global_vecs=global_vecs,
        slot_ptr=np.searchsorted(groups // n_slots, np.arange(len(cells.users) + 1)),
        slots=groups % n_slots,
        slot_vecs=_means(group, pairs % n_items, embeddings),
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
