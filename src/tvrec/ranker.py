"""Ranking strategies over the candidate program set: behavior-only,
preference-only, two-stage, and (weighted) reciprocal rank fusion.

All rankers consume a prebuilt :class:`Candidates` index so that per-user
inference touches only precomputed arrays, mirroring a production setup where
everything derivable from the schedule is indexed in advance. Every ranker is
deterministic: score ties break by earlier start time, then by program id.
Candidate rows are stored in that (start, id) order, so the row number is the
tie-break: a stable sort by score alone applies it.

Rankers take and return a :class:`Ranking`: ``rows``, candidate rows best
first, and ``scores``, indexed by row. RRF reads its input ranks off the rows
by inverse permutation. Program ids appear only in :func:`top_k`, which turns
the first ``k`` rows of a ranking into ``(program id, score)`` pairs.

Two-stage ranking scans the behavior-ordered candidates and collapses each
maximal consecutive run sharing one (slot, channel) group key down to the run
member with the highest preference score. The scan reads only the group keys:
it collects the rows of the first ``k`` runs, then scores them in one batch,
so only a small prefix of the candidate set ever incurs a dot product; the
evaluation count is exposed via :class:`TwoStageStats`.

Preference scores follow one rule in both rankers that read them (see
:mod:`tvrec.preference`): each row's zero-padded embedding against the
densified vector of the user for the row's start slot, else the global one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, NamedTuple

import numpy as np

from .arrays import Rows
from .behavior import UserBehavior
from .datamodel import ProgramMeta
from .errors import DataError
from .preference import ItemIndex, PreferenceModel
from .timegrid import TimeGrid, slots_of_span

RankedList = list[tuple[str, float]]

DEFAULT_RRF_ETA = 60.0  # customary damping constant when no tuning is run


class Ranking(NamedTuple):
    """Candidate rows in rank order, best first, plus scores indexed by row.

    Full-list rankers order every row; :func:`two_stage` returns only its
    winners. ``scores`` always covers every row.
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
    """

    n_slots: int
    ids: tuple[str, ...]
    channels: tuple[str, ...]
    span_flat: np.ndarray
    span_ptr: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def ncols(self) -> int:
        """Columns of the flat grid: one per channel, at least one."""
        return max(len(self.channels), 1)

    def start_slots(self) -> np.ndarray:
        """The 1-based start slot of every row."""
        return self.span_flat[self.span_ptr[:-1]] // self.ncols + 1


def build_candidates(
    metas: Iterable[ProgramMeta], grid: TimeGrid, channels: Collection[str] = ()
) -> Candidates:
    """Index candidate programs for ranking.

    ``channels`` should include every channel present in the training tensor;
    channels appearing only in the metadata are added automatically so that
    distinct channels never share a grid column.
    """
    ms = sorted(metas, key=lambda m: (m.start, m.program))
    ids = tuple(m.program for m in ms)
    if len(set(ids)) != len(ids):
        raise DataError("candidate set contains duplicate program ids")
    all_channels = tuple(sorted(set(channels) | {m.channel for m in ms}))
    col_of = {c: i for i, c in enumerate(all_channels)}
    ncols = max(len(all_channels), 1)

    flat: list[int] = []
    ptr = [0]
    for m in ms:
        col = col_of[m.channel]
        flat.extend((s - 1) * ncols + col for s in slots_of_span(m.start, m.end, grid))
        ptr.append(len(flat))

    return Candidates(
        n_slots=grid.n,
        ids=ids,
        channels=all_channels,
        span_flat=np.asarray(flat, dtype=np.int64),
        span_ptr=np.asarray(ptr, dtype=np.int64),
    )


def build_item_index(embeddings: Rows, cand: Candidates) -> ItemIndex:
    """Pad the candidate embeddings, one CSR row per candidate row, into the
    arrays of an :class:`ItemIndex`, and group the rows by start slot."""
    n = len(cand)
    if len(embeddings.ptr) != n + 1:
        raise ValueError(f"{len(embeddings.ptr) - 1} embeddings for {n} candidates")
    lens = np.diff(embeddings.ptr)
    width = int(lens.max(initial=0)) or 1
    row = np.repeat(np.arange(n), lens)
    pos = np.arange(len(embeddings.col)) - np.repeat(embeddings.ptr[:-1], lens)
    idx = np.zeros((n, width), dtype=np.int64)
    idx[row, pos] = embeddings.col
    weights = np.zeros((n, width))
    weights[row, pos] = embeddings.val
    start = cand.start_slots()
    slot_rows = np.argsort(start, kind="stable")
    slot_ptr = np.searchsorted(start[slot_rows], np.arange(1, cand.n_slots + 2))
    return ItemIndex(idx=idx, weights=weights, slot_rows=slot_rows, slot_ptr=slot_ptr)


def _user_vectors(model: PreferenceModel, user: str) -> tuple[np.ndarray, np.ndarray]:
    """The user's slots, ascending, and a matrix of their vectors densified:
    one row per slot, then the global vector in the last row."""
    u = model.user_row(user)
    p = model.prefs
    lo, hi = p.slot_ptr[u], p.slot_ptr[u + 1]
    vec_ptr = p.slot_vecs.ptr[lo : hi + 1]
    a, b = vec_ptr[0], vec_ptr[-1]
    dense = np.zeros((hi - lo + 1, model.dims))
    dense[np.repeat(np.arange(hi - lo), np.diff(vec_ptr)), p.slot_vecs.col[a:b]] = p.slot_vecs.val[a:b]
    col, val = p.global_vecs.row(u)
    dense[-1, col] = val
    return p.slots[lo:hi], dense


def _dense_grid(bm: UserBehavior, cand: Candidates) -> np.ndarray:
    dense = np.zeros(cand.n_slots * cand.ncols)
    dense[bm.cells] = bm.probs
    return dense


def _span_values(bm: UserBehavior, cand: Candidates) -> np.ndarray:
    # The user's probability at every span cell, segmented per row by span_ptr.
    return _dense_grid(bm, cand)[cand.span_flat]


def _stage_one_order(scores: np.ndarray) -> np.ndarray:
    # Score desc; a stable sort keeps ties in row order, i.e. (start, id).
    return np.argsort(-scores, kind="stable")


def _ranking(scores: np.ndarray) -> Ranking:
    return Ranking(_stage_one_order(scores), scores)


def top_k(cand: Candidates, ranking: Ranking, k: int) -> RankedList:
    """The first ``k`` rows of ``ranking`` as (program id, score) pairs."""
    rows = ranking.rows[:k]
    ids = cand.ids
    return [(ids[r], s) for r, s in zip(rows.tolist(), ranking.scores[rows].tolist())]


def rank_behavior(bm: UserBehavior, cand: Candidates) -> Ranking:
    """Rank all candidates by behavior score, descending."""
    return _ranking(np.maximum.reduceat(_span_values(bm, cand), cand.span_ptr[:-1]))


def rank_preference(model: PreferenceModel, user: str, cand: Candidates) -> Ranking:
    """Rank all candidates by preference score, descending: one batched pass
    with the global vector, then the rows of each slot the user has a vector
    for again with that vector."""
    items = model.items
    if items.idx.shape[0] != len(cand.ids):
        raise ValueError("item index does not match the candidate set")
    slots, dense = _user_vectors(model, user)
    idx, weights, bounds = items.idx, items.weights, items.slot_ptr
    scores = (dense[-1][idx] * weights).sum(axis=1)
    for vec, slot in zip(dense, slots.tolist()):
        rows = items.slot_rows[bounds[slot - 1] : bounds[slot]]
        if len(rows):
            scores[rows] = (vec[idx[rows]] * weights[rows]).sum(axis=1)
    return _ranking(scores)


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
    scores are the behavior scores. The argmax slot is found only for the
    rows the scan visits, earliest slot first on ties; the rows of the first
    ``k`` runs are then scored in one batch.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    slots, dense = _user_vectors(model, bm.user)
    vals = _span_values(bm, cand)
    flat = cand.span_flat
    ptr = cand.span_ptr
    scores = np.maximum.reduceat(vals, ptr[:-1])
    order = _stage_one_order(scores)

    run_starts: list[int] = []
    run_key = -1
    end = len(order)
    for n, row in enumerate(order):
        # The argmax span cell encodes (slot, channel): it is the group key.
        lo = ptr[row]
        key = flat[lo + vals[lo : ptr[row + 1]].argmax()]
        if key != run_key:
            if len(run_starts) == k:
                end = n
                break
            run_starts.append(n)
            run_key = key
    rows = order[:end]
    if stats is not None:
        stats.preference_evals += end
    if not end:
        return Ranking(rows, scores)

    # Each row's vector: the user's for its start slot, else the global one.
    vec_of_slot = np.full(cand.n_slots + 1, len(slots))
    vec_of_slot[slots] = np.arange(len(slots))
    vec = vec_of_slot[flat[ptr[rows]] // cand.ncols + 1]
    items = model.items
    pref = (dense[vec[:, None], items.idx[rows]] * items.weights[rows]).sum(axis=1)
    # A run's rows share one behavior score, so they are in row order, and
    # the first row with the run's best preference is the tie-break's winner.
    starts = np.asarray(run_starts)
    best = np.maximum.reduceat(pref, starts)
    hits = np.flatnonzero(pref == np.repeat(best, np.diff(starts, append=end)))
    return Ranking(rows[hits[np.searchsorted(hits, starts)]], scores)


def _rank_of_row(ranking: Ranking, n: int, name: str) -> np.ndarray:
    # 1-based rank of every row: the inverse permutation of ranking.rows.
    rows = ranking.rows
    if len(rows) != n:
        raise ValueError(f"{name} ranking covers {len(rows)} rows, expected {n}")
    if n and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"{name} ranking has a row outside the candidate set")
    pos = np.zeros(n)
    pos[rows] = np.arange(1, n + 1)
    if not pos.all():
        raise ValueError(f"{name} ranking lists a row twice")
    return pos


def _fused_scores(pb: np.ndarray, pp: np.ndarray, eta: float, w_b: float, w_p: float) -> np.ndarray:
    # The one fusion rule that recommend and tune_rrf share.
    return w_b / (pb + eta) + w_p / (pp + eta)


def _fuse(
    kappa_b: Ranking,
    kappa_p: Ranking,
    cand: Candidates,
    eta: float,
    w_b: float,
    w_p: float,
) -> Ranking:
    n = len(cand.ids)
    pb = _rank_of_row(kappa_b, n, "behavior")
    pp = _rank_of_row(kappa_p, n, "preference")
    return _ranking(_fused_scores(pb, pp, eta, w_b, w_p))


def check_eta(eta: float) -> None:
    """Raise ValueError unless ``eta`` is a finite non-negative number."""
    if not 0.0 <= eta < float("inf"):
        raise ValueError(f"eta must be a finite non-negative number, got {eta!r}")


def check_xi(xi: float) -> None:
    """Raise ValueError unless ``xi`` lies in [0, 1]."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must lie in [0, 1], got {xi!r}")


def rrf(kappa_b: Ranking, kappa_p: Ranking, cand: Candidates, eta: float = DEFAULT_RRF_ETA) -> Ranking:
    """Reciprocal rank fusion of the two rankings: sum of 1/(rank + eta)."""
    check_eta(eta)
    return _fuse(kappa_b, kappa_p, cand, eta, 1.0, 1.0)


def rrf_weighted(
    kappa_b: Ranking,
    kappa_p: Ranking,
    cand: Candidates,
    eta: float = DEFAULT_RRF_ETA,
    xi: float = 0.5,
) -> Ranking:
    """Weighted RRF: xi/(rank_b + eta) + (1 - xi)/(rank_p + eta)."""
    check_eta(eta)
    check_xi(xi)
    return _fuse(kappa_b, kappa_p, cand, eta, xi, 1.0 - xi)


def tune_rrf(
    rankings: Mapping[str, tuple[Ranking, Ranking]],
    truths: Mapping[str, Collection[str]],
    cand: Candidates,
    eta_grid: Iterable[float],
    xi_grid: Iterable[float],
    cutoff: int = 30,
) -> tuple[float, float, float]:
    """Grid-search (eta, xi) maximizing mean recall at ``cutoff`` over the
    development users; ties resolve to the smallest eta, then smallest xi.
    Returns ``(eta, xi, mean recall)`` of the winning cell, scored exactly as
    :func:`rrf_weighted` fuses.

    ``rankings`` maps each development user to their (behavior, preference)
    rankings over the full candidate set.
    """
    etas = sorted(eta_grid)
    xis = sorted(xi_grid)
    if not etas or not xis:
        raise ValueError("hyperparameter grids must be non-empty")

    n = len(cand.ids)
    row_of = {pid: row for row, pid in enumerate(cand.ids)}
    per_user = []
    for user in sorted(rankings):
        truth = truths.get(user)
        if not truth:
            continue
        kb, kp = rankings[user]
        mask = np.zeros(n, dtype=bool)
        mask[[row_of[pid] for pid in truth if pid in row_of]] = True
        per_user.append((_rank_of_row(kb, n, "behavior"), _rank_of_row(kp, n, "preference"), mask, len(truth)))
    if not per_user:
        raise ValueError("development set is empty or has no ground truth")

    best = (etas[0], xis[0], -1.0)
    for eta in etas:
        for xi in xis:
            total = 0.0
            for pb, pp, mask, tsize in per_user:
                top = _stage_one_order(_fused_scores(pb, pp, eta, xi, 1.0 - xi))[:cutoff]
                total += mask[top].sum() / tsize
            mean_recall = float(total / len(per_user))
            if mean_recall > best[2]:
                best = (eta, xi, mean_recall)
    return best
