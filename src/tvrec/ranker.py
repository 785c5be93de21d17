"""Ranking strategies over the candidate program set: behavior-only,
preference-only, two-stage, and (weighted) reciprocal rank fusion.

All rankers consume a prebuilt :class:`Candidates` index so that per-user
inference touches only precomputed arrays, mirroring a production setup where
everything derivable from the schedule is indexed in advance. Every ranker is
deterministic: score ties break by earlier start time, then by program id.
Candidate rows are stored in that (start, id) order, so the row number is the
tie-break: a stable sort by score alone applies it. :func:`build_candidates`
indexes a :class:`tvrec.datamodel.ProgramTable` whose rows already come in
that order, one candidate row per table row, and lists every row's (slot,
channel) cells in one pass of :func:`tvrec.timegrid.span_column`.

Rankers take user rows and return a :class:`Ranking`: ``rows``, candidate
rows best first, and ``scores``, indexed by row. A user row indexes both the
behavior and the preference model; no ranker looks up a user's name. RRF
works on rank weights, not on ranks: the weights ``w / (rank + eta)`` of the
ranks 1 to n are computed once per ``(n, eta, w)`` and cached, and each
ranking's weights are scattered onto its rows, so the behavior and
preference rankers order every row. The scatter doubles as the check that a ranking lists every row once;
only a ranking that fails it is validated, to name it in the error.
:func:`tune_rrf`, which fuses each user's rankings once per grid cell,
ranks each user's rows once and gathers the same weights by rank. Fusion
writes only ``k`` items, so :func:`rrf`, :func:`rrf_weighted` and
:func:`tune_rrf` order only a frontier: every row scoring at least the
``k``-th best fused score, stable-sorted. That is a prefix of the full
order, ties at the ``k``-th place included. Each input ranking's first ``k``
rows bound the ``k``-th best fused score from below, so only the few rows
reaching that bound are sorted, and no partition of every score is needed.
Program ids appear only in :func:`top_k`, which turns the first ``k`` rows
of a ranking into ``(program id, score)`` pairs.

The preference order skips the stable sort. Each non-zero score becomes one
int64 key, its order-preserving bit pattern with the low bits replaced by
its row, and one ``np.sort`` of the keys orders the scores, equal ones by
row. Only the rare runs of different scores that share a key once its low
bits are cut are re-sorted by score. The zeros, the largest run of equal
scores, are written in row order as ``flatnonzero(scores == 0)``. That gives
the stable order exactly as long as no score is NaN, which the bundle's
positive weights guarantee.

Behavior scores are read off the user's footprint, not the whole grid: the
cell index of :class:`Candidates` lists the span entries in each of the
user's cells, and a maximum over those (row, probability) pairs scores the
rows they touch. Every other row scores 0. Probabilities are positive, so
the behavior order is the touched rows stable-sorted by score, then every
other row in row order.

Two-stage ranking scans the behavior-ordered candidates and collapses each
maximal consecutive run sharing one (slot, channel) group key down to the run
member with the highest preference score. One lexsort of the user's pairs by
(-probability, span entry), which is (-probability, row, entry) since span
entries come in row order, puts the touched rows in behavior order at their
first pair that reaches their score. That pair's cell is the row's key: its
best cell, the earliest in span order among equals, which stays right for a
span that wraps the week. A row scoring 0 takes its first span cell as its
key; the scan reads those rows in row order, through a window of the zero
tail that doubles until it closes the ``k``-th run. It collects the rows of
the first ``k`` runs, then scores them in one batch, so only a small prefix
of the candidate set ever incurs a dot product; the evaluation count is
exposed via :class:`TwoStageStats`.

:func:`two_stage_block` gives the same winners and score bits for a block of
users in one vectorized scan, and ``recommend`` ranks every user with it, in
the blocks of about ``BLOCK_PAIRS`` footprint pairs that :func:`user_blocks`
cuts. One sort by (user, row) groups the block's footprint pairs, and one
stable sort of (user, score rank) keys orders each user's touched rows. The
users still short of ``k + 1`` runs read their zero rows through one doubling
window together, and the rows of every user's first ``k`` runs are scored in
one batch. Its numpy calls are made once per block, where :func:`two_stage`
makes about forty per user, but there are more of them: a block of one user
costs several :func:`two_stage` calls (about 360 against 85 µs on Dataset
A). The two sit side by side, one per traffic shape: the block scan serves
the whole population, and :func:`two_stage` serves one user at a time, as
``bench`` and the acceptance criteria time it. Tests pin the two equal.

Preference scores come from :mod:`tvrec.preference`, which owns their one
rule: :func:`rank_preference` scores every row against the user's global
vector (:meth:`ItemIndex.dots`, over the embeddings grouped by length), then
the rows of the user's slots against their slot's vector in one batch
(:meth:`PreferenceModel.scores`, over the padded embeddings), and
:func:`two_stage` scores the rows it visits in one batch, and
:func:`two_stage_block` those of a block of users
(:meth:`PreferenceModel.block_scores`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .arrays import Rows, ranges
from .behavior import Behavior, UserBehavior
from .datamodel import ProgramTable
from .errors import DataError
from .preference import ItemIndex, PreferenceModel
from .timegrid import TimeGrid, span_column

RankedList = list[tuple[str, float]]

DEFAULT_RRF_ETA = 60.0  # customary damping constant when no tuning is run


class Ranking(NamedTuple):
    """Candidate rows in rank order, best first, plus scores indexed by row.

    :func:`rank_behavior` and :func:`rank_preference` order every row;
    :func:`two_stage` returns only its winners, and the fusions a prefix of
    their full order: the ``k`` best rows plus every row tied with the
    ``k``-th. ``scores`` always covers every row.
    """

    rows: np.ndarray
    scores: np.ndarray


@dataclass
class TwoStageStats:
    """Instrumentation for the two-stage scan."""

    preference_evals: int = 0


@dataclass(frozen=True)
class Candidates:
    """Precomputed index over candidate programs on a fixed slot grid.

    Rows are in (start, program id) order, so a lower row number is the
    earlier start, then the smaller id: the tie-break of every ranker.
    ``span_flat`` concatenates each program's (slot, channel) cells, in slot
    order, as flat offsets ``(slot - 1) * ncols + column`` into a dense
    slots-by-channels grid; row ``r``'s cells are
    ``span_flat[span_ptr[r]:span_ptr[r + 1]]``, and its first cell holds its
    start slot.

    The cell index is derived from ``span_flat`` on construction: cell
    ``c``'s span entries are ``cell_entry[cell_ptr[c]:cell_ptr[c + 1]]``,
    their positions in ``span_flat``, ascending, and their rows the same
    slice of ``cell_row``; ``cell_lo`` is ``cell_ptr[:-1]`` and
    ``cell_len`` the entries of each cell. ``start_cell[r]`` is row ``r``'s
    first cell.
    """

    n_slots: int
    ids: tuple[str, ...]
    channels: tuple[str, ...]
    span_flat: np.ndarray
    span_ptr: np.ndarray
    cell_ptr: np.ndarray = field(init=False, repr=False)
    cell_lo: np.ndarray = field(init=False, repr=False)
    cell_len: np.ndarray = field(init=False, repr=False)
    cell_entry: np.ndarray = field(init=False, repr=False)
    cell_row: np.ndarray = field(init=False, repr=False)
    start_cell: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        flat = self.span_flat
        entry = np.argsort(flat, kind="stable")
        row = np.repeat(np.arange(len(self.ids)), np.diff(self.span_ptr))
        n_cells = self.n_slots * self.ncols
        cell_ptr = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=n_cells), out=cell_ptr[1:])
        object.__setattr__(self, "cell_ptr", cell_ptr)
        object.__setattr__(self, "cell_lo", cell_ptr[:-1])
        object.__setattr__(self, "cell_len", np.diff(cell_ptr))
        object.__setattr__(self, "cell_entry", entry)
        object.__setattr__(self, "cell_row", row[entry])
        object.__setattr__(self, "start_cell", flat[self.span_ptr[:-1]])

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def ncols(self) -> int:
        """Columns of the flat grid: one per channel, at least one."""
        return max(len(self.channels), 1)

    def start_slots(self, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The 1-based start slot of each of ``rows``, every row by default."""
        return self.start_cell[rows] // self.ncols + 1

    def repeats_a_cell(self) -> bool:
        """Whether some row's span lists one cell twice."""
        rows, cells = self.cell_row, self.span_flat[self.cell_entry]
        return bool(np.any((rows[1:] == rows[:-1]) & (cells[1:] == cells[:-1])))


def build_candidates(programs: ProgramTable, grid: TimeGrid, channels: Collection[str] = ()) -> Candidates:
    """Index candidate programs for ranking: row ``r`` of the index is row
    ``r`` of ``programs``, which must come in (start, id) order.

    ``channels`` should include every channel present in the training tensor;
    the channels of ``programs`` are added automatically so that distinct
    channels never share a grid column. Raises :class:`DataError` when a
    program id repeats, and ValueError when the rows are out of order.
    """
    program, start = programs.program, programs.start
    if np.bincount(program).max(initial=0) > 1:
        raise DataError("candidate set contains duplicate program ids")
    ids = tuple(map(programs.program_names.__getitem__, program.tolist()))
    tied = np.flatnonzero(start[1:] == start[:-1]).tolist()
    if np.any(start[1:] < start[:-1]) or any(ids[i] > ids[i + 1] for i in tied):
        raise ValueError("candidate programs are not in (start, id) order")
    all_channels = tuple(sorted(set(channels).union(programs.channel_names)))
    col_of = {c: i for i, c in enumerate(all_channels)}
    column = np.array([col_of[c] for c in programs.channel_names], dtype=np.int64)
    span_ptr, slots = span_column(start, programs.end, grid)
    return Candidates(
        n_slots=grid.n,
        ids=ids,
        channels=all_channels,
        span_flat=(slots - 1) * len(all_channels) + np.repeat(column[programs.channel], np.diff(span_ptr)),
        span_ptr=span_ptr,
    )


def build_item_index(embeddings: Rows, cand: Candidates) -> ItemIndex:
    """Lay out the candidate embeddings, one CSR row per candidate row,
    zero-padded and transposed as an :class:`ItemIndex` (which takes its
    length buckets from that layout when it first needs them), and group the
    rows by start slot.

    The padded arrays are as wide as the longest embedding, their
    dimensions in the CSR rows' dtype.
    """
    n = len(cand)
    if len(embeddings.ptr) != n + 1:
        raise ValueError(f"{len(embeddings.ptr) - 1} embeddings for {n} candidates")
    lens = np.diff(embeddings.ptr)
    width = int(lens.max(initial=0)) or 1
    row = np.repeat(np.arange(n), lens)
    pos = np.arange(len(embeddings.col)) - np.repeat(embeddings.ptr[:-1], lens)
    idx = np.zeros((width, n), dtype=embeddings.col.dtype)
    idx[pos, row] = embeddings.col
    weights = np.zeros((width, n))
    weights[pos, row] = embeddings.val
    start = cand.start_slots()
    slot_rows = np.argsort(start, kind="stable")
    slot_ptr = np.searchsorted(start[slot_rows], np.arange(1, cand.n_slots + 2))
    return ItemIndex(idx=idx, weights=weights, lens=lens, slot_rows=slot_rows, slot_ptr=slot_ptr)


def _footprint(bm: UserBehavior, cand: Candidates) -> tuple[np.ndarray, np.ndarray]:
    """The span entries in the user's cells: their places in the cell index,
    and the user's probability at each."""
    lo, n = cand.cell_lo[bm.cells], cand.cell_len[bm.cells]
    return ranges(lo, lo + n), np.repeat(bm.probs, n)


def _new_runs(keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` starts a run of equal consecutive keys."""
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


def _run_max(values: np.ndarray, new: np.ndarray, tiebreak: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each run's largest value, a run starting at each True of ``new``, and
    the least of ``tiebreak`` over the run's positions holding it."""
    starts = new.nonzero()[0]
    if not len(starts):
        return values, tiebreak
    top = np.maximum.reduceat(values, starts)
    at_top = values == top[np.cumsum(new) - 1]
    return top, np.minimum.reduceat(np.where(at_top, tiebreak, np.iinfo(tiebreak.dtype).max), starts)


def _stage_one_order(scores: np.ndarray) -> np.ndarray:
    # Score desc; a stable sort keeps ties in row order, i.e. (start, id).
    return np.argsort(-scores, kind="stable")


def _preference_order(scores: np.ndarray) -> np.ndarray:
    """``_stage_one_order(scores)`` for NaN-free scores, without a stable sort.

    Each non-zero score gets one int64 key: the bits of its negation made
    order-preserving (a negative float's magnitude bits flipped), with the
    low ``b`` bits, enough to hold any row, replaced by its row. Sorting the
    keys orders the scores, and equal scores by row, except where two
    different scores agree on all but those low bits: such runs of equal
    cut keys are re-sorted by score. Positive scores have negative keys.
    The zeros (-0.0 and 0.0 alike) go between the positive and the negative
    scores in row order, as ``flatnonzero(scores == 0)``. NaN would compare
    unequal to itself and has no place in the key order, hence the NaN-free
    precondition.
    """
    zero = scores == 0
    rows = np.flatnonzero(~zero)
    keys = np.negative(scores[rows]).view(np.int64)
    keys ^= (keys >> 63) & np.int64(2**63 - 1)
    b = (len(scores) - 1).bit_length()
    keys &= np.int64(-(1 << b))
    keys |= rows
    keys.sort()
    np.bitwise_and(keys, (1 << b) - 1, out=rows)
    cut = keys >> b
    pairs = np.flatnonzero(cut[1:] == cut[:-1])
    if len(pairs):
        in_pair = np.zeros(len(cut), dtype=bool)
        in_pair[pairs] = in_pair[pairs + 1] = True
        at = np.flatnonzero(in_pair)  # not np.union1d, whose first call imports numpy.ma
        run = np.zeros(len(at), dtype=np.int64)
        np.cumsum(cut[at[1:]] != cut[at[:-1]], out=run[1:])
        tied = rows[at]
        rows[at] = tied[np.lexsort((-scores[tied], run))]
    lo = int(np.searchsorted(keys, 0))
    return np.concatenate((rows[:lo], np.flatnonzero(zero), rows[lo:]))


def _top_rows(scores: np.ndarray, k: int, heads: Iterable[np.ndarray]) -> np.ndarray:
    """The prefix of ``_stage_one_order(scores)`` that ends with the last row
    tied with the ``k``-th best score: the ``k`` best rows and every tie of
    the ``k``-th, best first, or every row when ``k >= len(scores)``.

    Each of ``heads`` lists ``k`` distinct rows, such as a fused ranking's
    first ``k``, so the ``k``-th best score is at least the lowest score in
    each. Only the rows reaching the largest of those bounds are sorted,
    which spares a partition of every score.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= len(scores):
        return _stage_one_order(scores)
    rows = np.flatnonzero(scores >= max(scores[head].min() for head in heads))
    rows = rows[_stage_one_order(scores[rows])]
    ranked = scores[rows]
    return rows[: np.count_nonzero(ranked >= ranked[k - 1])]


def top_k(cand: Candidates, ranking: Ranking, k: int) -> RankedList:
    """The first ``k`` rows of ``ranking`` as (program id, score) pairs."""
    rows = ranking.rows[:k]
    ids = cand.ids
    return [(ids[r], s) for r, s in zip(rows.tolist(), ranking.scores[rows].tolist())]


def rank_behavior(bm: UserBehavior, cand: Candidates) -> Ranking:
    """Rank all candidates by behavior score, descending: the rows touching
    the user's cells by score, then the rest, scoring 0, in row order."""
    pos, probs = _footprint(bm, cand)
    touched = cand.cell_row[pos]
    scores = np.zeros(len(cand))
    np.maximum.at(scores, touched, probs)
    zero = scores == 0
    head = np.flatnonzero(~zero)  # the touched rows: probabilities are positive
    return Ranking(np.concatenate((head[_stage_one_order(scores[head])], np.flatnonzero(zero))), scores)


def rank_preference(model: PreferenceModel, u: int, cand: Candidates) -> Ranking:
    """Rank all candidates by user row ``u``'s preference score, descending:
    one batched pass with the global vector, then one over the rows of the
    slots the user has a vector for, each with its slot's vector."""
    items = model.items
    if len(items) != len(cand):
        raise ValueError("item index does not match the candidate set")
    p = model.prefs
    vec = np.zeros(model.dims)
    col, val = p.global_vecs.row(u)
    vec[col] = val
    scores = items.dots(vec)
    slots = p.slots[p.slot_ptr[u] : p.slot_ptr[u + 1]]
    lo, hi = items.slot_ptr[slots - 1], items.slot_ptr[slots]
    rows = items.slot_rows[ranges(lo, hi)]
    scores[rows] = model.scores(u, rows, np.repeat(slots, hi - lo))
    return Ranking(_preference_order(scores), scores)


def two_stage(
    bm: UserBehavior,
    model: PreferenceModel,
    cand: Candidates,
    k: int,
    stats: TwoStageStats | None = None,
) -> Ranking:
    """Two-stage ranking: behavior-ordered scan with per-(slot, channel)-run
    preference dedup.

    Scanning the behavior order, maximal consecutive runs sharing one group
    key (the behavior argmax slot plus the program channel) collapse to the
    single member with the highest preference score; run-internal preference
    ties break to the earlier start, then id. Winners are emitted in run
    order until ``k`` items are out. When the scan exhausts the candidates
    with a run still pending, that run is flushed, so the output only falls
    short of ``k`` when the candidate groups themselves run out. The returned
    scores are the behavior scores. The group keys of the rows touching the
    user's cells come from their best cell, earliest in span order on ties,
    and those of the rows scoring 0 from their first span cell, read only as
    far as the scan goes; the rows of the first ``k`` runs are then scored in
    one batch.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(cand)
    pos, probs = _footprint(bm, cand)
    touched, entry = cand.cell_row[pos], cand.cell_entry[pos]
    scores = np.zeros(n)
    np.maximum.at(scores, touched, probs)
    # By (-probability, span entry), which is (-probability, row, entry): each
    # row's first pair at its score is its best cell, earliest in span order,
    # and these pairs come in behavior order. A row's pairs at one probability
    # are adjacent, so a pair at the row's score follows another of its row
    # only when that one came first.
    pair = np.lexsort((entry, -probs))
    pair_row = touched[pair]
    first = probs[pair] == scores[pair_row]
    first[1:] &= pair_row[1:] != pair_row[:-1]
    pair = pair[first.nonzero()[0]]
    head, head_keys = touched[pair], cand.span_flat[entry[pair]]

    # The zero rows follow in row order, keyed by their first span cell. Read
    # a window of them, at first as long as the runs still missing, and
    # double it until it closes the k-th run or holds every row.
    rows, new = head, _new_runs(head_keys)
    starts = new.nonzero()[0]
    window = k + 1 - len(starts)
    while len(starts) <= k and len(rows) < n:
        stop = min(len(head) + window, n)
        free = np.ones(stop, dtype=bool)
        free[head[head < stop]] = False
        tail = free.nonzero()[0]
        rows = np.concatenate((head, tail))
        new = _new_runs(np.concatenate((head_keys, cand.start_cell[tail])))
        starts = new.nonzero()[0]
        window *= 2
    end = int(starts[k]) if len(starts) > k else n
    starts = starts[:k]
    rows = rows[:end]
    if stats is not None:
        stats.preference_evals += end
    if not end:
        return Ranking(rows, scores)

    pref = model.scores(bm.row, rows, cand.start_slots(rows))
    # A run's rows share one behavior score, so they are in row order, and a
    # stable sort by (run, -preference) puts each run's winner at its start.
    by_pref = np.lexsort((-pref, np.cumsum(new[:end])))
    return Ranking(rows[by_pref[starts]], scores)


# Footprint pairs of a block of users, about. The block's working arrays grow
# with it; on Dataset A, 2**12 to 2**14 ranked at one speed, and 2**12 kept
# `recommend`'s peak RSS lowest.
BLOCK_PAIRS = 2**12


def user_blocks(behavior: Behavior, cand: Candidates) -> Iterator[np.ndarray]:
    """The rows of ``behavior`` in order, in blocks of whole users of about
    ``BLOCK_PAIRS`` footprint pairs each, at least one user per block."""
    rows = behavior.rows
    pairs = np.zeros(len(rows.col) + 1, dtype=np.int64)
    np.cumsum(cand.cell_len[rows.col], out=pairs[1:])
    before = pairs[rows.ptr]  # the pairs of the users before each, then of all
    lo = 0
    while lo < len(behavior.users):
        hi = max(int(np.searchsorted(before, before[lo] + BLOCK_PAIRS, "right")) - 1, lo + 1)
        yield np.arange(lo, hi)
        lo = hi


def two_stage_block(
    behavior: Behavior,
    users: np.ndarray,
    model: PreferenceModel,
    cand: Candidates,
    k: int,
    stats: TwoStageStats | None = None,
) -> Rows:
    """:func:`two_stage` for each of ``users``, user rows of ``behavior`` and
    ``model``, in one vectorized scan: user row ``users[i]``'s winners are
    ``col[ptr[i]:ptr[i + 1]]`` of the result and their behavior scores the
    same slice of ``val``, the same rows and bits as :func:`two_stage`'s.
    A user has at most ``len(cand)`` runs, so a larger ``k`` is cut to that.

    One sort of the block's footprint pairs by (user, row) groups each
    touched row's pairs: the row's score is their largest probability, and
    its key the cell of its earliest span entry at that probability. A
    stable sort of the touched rows by (user, -score) is each user's head.
    Users whose head holds ``k`` runs or fewer read their zero rows through
    a window that doubles, all of them at once, a row being free when its
    (user, row) key is not among the touched ones. The rows of every user's
    first ``k`` runs are scored in one batch
    (:meth:`PreferenceModel.block_scores`), and each run's winner is its
    first row at its largest score, the row a stable sort by (run,
    -preference) puts first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, n_users, n_cells = len(cand), len(users), len(cand.cell_ptr) - 1
    k = min(k, n)  # the same runs, and no overflow in the int64 window arithmetic below
    beh = behavior.rows.take(users)
    lo, lens = cand.cell_lo[beh.col], cand.cell_len[beh.col]
    pos = ranges(lo, lo + lens)
    key = np.repeat(np.repeat(np.arange(n_users), np.diff(beh.ptr)), lens) * n + cand.cell_row[pos]
    by_key = np.argsort(key)
    key, probs, entry = key[by_key], np.repeat(beh.val, lens)[by_key], cand.cell_entry[pos][by_key]
    new = _new_runs(key)
    score, best = _run_max(probs, new, entry)
    # The touched (user, row) keys, ascending, then a key past every (user, row).
    touched = np.append(key[new], n_users * n)

    # Each user's touched rows by score, descending, then by row: one stable
    # sort of (user, score rank) keys.
    levels, level = np.unique(score, return_inverse=True)
    head = np.argsort(touched[:-1] // n * len(levels) - level, kind="stable")
    h_user = touched[head] // n
    h_key = h_user * n_cells + cand.span_flat[best[head]]
    h_new = _new_runs(h_key)
    parts = [(h_user, touched[head] % n, score[head], h_new)]
    h_len = np.bincount(h_user, minlength=n_users)
    runs = np.bincount(h_user[h_new], minlength=n_users)

    # The zero rows of the users short of k + 1 runs, in row order and keyed
    # by their first span cell: a window of them, at first as long as the
    # runs still missing, doubled until it closes the k-th run or holds every
    # row. A row is free unless its (user, row) key is a touched one. A
    # user's first free row starts a run: its cells are none of the user's,
    # and every head key is one.
    need = np.flatnonzero(runs <= k)
    window = k + 1 - runs[need]
    while len(need):
        stop = np.minimum(h_len[need] + window, n)
        t_user, t_row = np.repeat(need, stop), ranges(np.zeros_like(stop), stop)
        q = t_user * n + t_row
        free = touched[np.searchsorted(touched, q)] != q
        t_user, t_row = t_user[free], t_row[free]
        t_key = t_user * n_cells + cand.start_cell[t_row]
        t_new = _new_runs(t_key)
        done = np.zeros(n_users, dtype=bool)
        done[need] = (runs[need] + np.bincount(t_user[t_new], minlength=n_users)[need] > k) | (stop == n)
        keep = done[t_user]
        parts.append((t_user[keep], t_row[keep], np.zeros(np.count_nonzero(keep)), t_new[keep]))
        window = 2 * window[~done[need]]
        need = need[~done[need]]

    # Each user's head, then their zero rows; then the rows of their first k runs.
    s_user, s_row, s_score, s_new = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(s_user, kind="stable")
    s_user, s_row, s_score, s_new = s_user[order], s_row[order], s_score[order], s_new[order]
    run_user = s_user[s_new]
    run_rank = np.arange(len(run_user)) - np.searchsorted(run_user, run_user)
    sel = (run_rank < k)[np.cumsum(s_new) - 1]
    s_user, s_row, s_score, s_new = s_user[sel], s_row[sel], s_score[sel], s_new[sel]
    if stats is not None:
        stats.preference_evals += len(s_row)

    pref = model.block_scores(users[s_user], s_row, cand.start_slots(s_row))
    win = _run_max(pref, s_new, np.arange(len(pref)))[1]
    ptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(s_user[s_new], minlength=n_users), out=ptr[1:])
    return Rows(ptr, s_row[win], s_score[win])


def _row_ranks(ranking: Ranking, n: int, name: str) -> np.ndarray:
    """The 0-based rank of every row, the inverse permutation of
    ``ranking.rows``; a ValueError naming the ``name`` ranking unless it
    lists each of the ``n`` rows once."""
    rows = ranking.rows
    if len(rows) != n:
        raise ValueError(f"{name} ranking covers {len(rows)} rows, expected {n}")
    if n and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"{name} ranking has a row outside the candidate set")
    ranks = np.full(n, -1)
    ranks[rows] = np.arange(n)
    if (ranks < 0).any():
        raise ValueError(f"{name} ranking lists a row twice")
    return ranks


@functools.lru_cache(maxsize=8)
def _rank_weights(n: int, eta: float, w: float) -> np.ndarray:
    """``w / (rank + eta)`` for the ranks 1 to ``n``, read-only: the one
    weight rule that fusion and :func:`tune_rrf` share."""
    weights = w / (np.arange(1.0, n + 1) + eta)
    weights.flags.writeable = False
    return weights


def _fused_scores(
    kappa_b: Ranking, kappa_p: Ranking, n: int, eta: float, w_b: float, w_p: float
) -> np.ndarray:
    """Each row's fused score ``w_b / (rank_b + eta) + w_p / (rank_p +
    eta)``, its behavior weight first, the weights read off
    :func:`_rank_weights`.

    Each ranking's weights are scattered onto its rows in a NaN-filled
    buffer: a row outside ``[-n, n)`` makes the scatter raise, and a row the
    ranking misses leaves a NaN in the sum. A negative row, which the
    scatter would wrap onto a real one, shows in the rows' minimum. Only
    when one of these checks fails are the rankings validated, which names
    the faulty one.
    """
    fused = np.full((2, n), np.nan)
    try:
        fused[0][kappa_b.rows] = _rank_weights(n, float(eta), float(w_b))
        fused[1][kappa_p.rows] = _rank_weights(n, float(eta), float(w_p))
    except (IndexError, ValueError):
        pass
    else:
        scores = fused[0] + fused[1]
        if min(kappa_b.rows.min(initial=0), kappa_p.rows.min(initial=0)) >= 0 and not np.isnan(scores).any():
            return scores
    _row_ranks(kappa_b, n, "behavior")
    _row_ranks(kappa_p, n, "preference")
    raise ValueError("rankings do not list each candidate row once")


def _fuse(
    kappa_b: Ranking,
    kappa_p: Ranking,
    cand: Candidates,
    k: int,
    eta: float,
    w_b: float,
    w_p: float,
) -> Ranking:
    scores = _fused_scores(kappa_b, kappa_p, len(cand), eta, w_b, w_p)
    return Ranking(_top_rows(scores, k, (kappa_b.rows[:k], kappa_p.rows[:k])), scores)


def check_eta(eta: float) -> None:
    """Raise ValueError unless ``eta`` is a finite non-negative number."""
    if not 0.0 <= eta < float("inf"):
        raise ValueError(f"eta must be a finite non-negative number, got {eta!r}")


def check_xi(xi: float) -> None:
    """Raise ValueError unless ``xi`` lies in [0, 1]."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must lie in [0, 1], got {xi!r}")


def rrf(
    kappa_b: Ranking, kappa_p: Ranking, cand: Candidates, eta: float = DEFAULT_RRF_ETA, *, k: int
) -> Ranking:
    """Reciprocal rank fusion of the two rankings: sum of 1/(rank + eta).
    Orders only the first ``k`` rows and their ties (see :class:`Ranking`)."""
    check_eta(eta)
    return _fuse(kappa_b, kappa_p, cand, k, eta, 1.0, 1.0)


def rrf_weighted(
    kappa_b: Ranking,
    kappa_p: Ranking,
    cand: Candidates,
    eta: float = DEFAULT_RRF_ETA,
    xi: float = 0.5,
    *,
    k: int,
) -> Ranking:
    """Weighted RRF: xi/(rank_b + eta) + (1 - xi)/(rank_p + eta). Orders
    only the first ``k`` rows and their ties (see :class:`Ranking`)."""
    check_eta(eta)
    check_xi(xi)
    return _fuse(kappa_b, kappa_p, cand, k, eta, xi, 1.0 - xi)


def tune_rrf(
    rankings: Sequence[tuple[Ranking, Ranking]],
    truths: Sequence[np.ndarray],
    cand: Candidates,
    eta_grid: Iterable[float],
    xi_grid: Iterable[float],
    cutoff: int = 30,
) -> tuple[float, float, float]:
    """Grid-search (eta, xi) maximizing mean recall at ``cutoff`` over the
    development users; ties resolve to the smallest eta, then smallest xi.
    Returns ``(eta, xi, mean recall)`` of the winning cell, scored exactly as
    :func:`rrf_weighted` fuses: each user's rows are ranked once, and every
    cell reads their weights off the same tables by rank. Gathering by rank
    reuses the ranks across cells, where scattering by row would redo its
    random writes in every one.

    ``rankings`` holds each development user's (behavior, preference)
    rankings over the full candidate set, and ``truths`` the same user's
    test programs as candidate rows, users in row order. A user without a
    truth is left out, and a row listed twice counts once.
    """
    etas = sorted(eta_grid)
    xis = sorted(xi_grid)
    if not etas or not xis:
        raise ValueError("hyperparameter grids must be non-empty")

    n = len(cand)
    per_user = []
    for (kb, kp), truth in zip(rankings, truths, strict=True):
        if not len(truth):
            continue
        mask = np.zeros(n, dtype=bool)
        mask[truth] = True
        ranks = (_row_ranks(kb, n, "behavior"), _row_ranks(kp, n, "preference"))
        per_user.append((*ranks, (kb.rows[:cutoff], kp.rows[:cutoff]), mask, np.count_nonzero(mask)))
    if not per_user:
        raise ValueError("development set is empty or has no ground truth")

    best = (etas[0], xis[0], -1.0)
    for eta in etas:
        for xi in xis:
            total = 0.0
            w_b, w_p = _rank_weights(n, float(eta), float(xi)), _rank_weights(n, float(eta), 1.0 - xi)
            for rb, rp, heads, mask, tsize in per_user:
                top = _top_rows(w_b[rb] + w_p[rp], cutoff, heads)[:cutoff]
                total += mask[top].sum() / tsize
            mean_recall = float(total / len(per_user))
            if mean_recall > best[2]:
                best = (eta, xi, mean_recall)
    return best
