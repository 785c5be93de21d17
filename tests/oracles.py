"""Brute-force reference implementations and random-instance generators.

Everything here is deliberately independent of the library's ranking,
ingestion and model-building code paths: dense matrices, plain dict
arithmetic, python sorts, the slot rule one timestamp at a time
(:func:`slot_of`, :func:`slots_of_span`), one :class:`ViewingLog` or
:class:`ProgramMeta` record per line, the interaction tensor as nested dicts, ``{user: {(program, slot, channel): count}}``,
the model as dicts: :class:`BehaviorMatrix` and :class:`PreferenceDicts`,
and tf-idf embeddings as ``{dimension: weight}`` dicts (:func:`fit_dicts`,
:func:`encode_dict`, :func:`mean_embedding`).
:func:`behavior_row`, :func:`preference_model` and :func:`embedding_rows`
turn the dicts into the arrays the library reads, and :func:`masks` name sets
into the code masks of `build_tensor`; :func:`behavior_dicts`,
:func:`preference_vectors` and :func:`row_dicts` turn built arrays back into
dicts.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Mapping

import numpy as np

from tvrec.arrays import Rows
from tvrec.behavior import Behavior, UserBehavior
from tvrec.datamodel import LogTable, ProgramTable, TensorCells
from tvrec.errors import DataError
from tvrec.preference import PreferenceModel, Preferences
from tvrec.ranker import Candidates, build_candidates, build_item_index
from tvrec.textenc import Vocabulary, tokenize
from tvrec.timegrid import SECONDS_PER_WEEK, TimeGrid

MONDAY = 1_554_076_800  # 2019-04-01 00:00:00 UTC

Embedding = dict[int, float]


# ---------------------------------------------------------------------------
# records and the slot rule, one at a time


@dataclass(frozen=True, slots=True)
class ViewingLog:
    """One channel-switch event: user switched to ``channel`` broadcasting
    ``program`` at UTC timestamp ``t`` and stayed for ``dt`` seconds."""

    user: str
    program: str
    channel: str
    t: int
    dt: int

    def __post_init__(self) -> None:
        if self.dt < 0:
            raise ValueError(f"negative duration {self.dt} for user {self.user!r}")


@dataclass(frozen=True, slots=True)
class ProgramMeta:
    """Broadcast metadata: channel, broadcast interval, and free text
    (title, artists, abstract concatenated)."""

    program: str
    channel: str
    start: int
    end: int
    text: str

    def __post_init__(self) -> None:
        if not (self.start < self.end and self.end - self.start < SECONDS_PER_WEEK):
            raise ValueError(f"program {self.program!r}: a broadcast starts before it ends, within a week")


# The Unix epoch (1970-01-01) is a Thursday; the Monday before it is
# 1969-12-29 00:00 UTC, i.e. epoch - 3 days.
_EPOCH_TO_MONDAY = 3 * 86_400


def _abs_slot(t: int, grid: TimeGrid) -> int:
    # Unbounded slot counter; consecutive across week boundaries.
    return (t + grid.utc_offset + _EPOCH_TO_MONDAY) // grid.slot_len


def slot_of(t: int, grid: TimeGrid) -> int:
    """Reference `timegrid.slot_column` for one timestamp: the 1-based weekly
    slot containing UTC timestamp ``t``."""
    return _abs_slot(t, grid) % grid.n + 1


def slots_of_span(s: int, e: int, grid: TimeGrid) -> list[int]:
    """Reference `timegrid.span_column` for one span: the chronological slot
    sequence touched by ``[s, e]``.

    Wraps modulo ``n`` across the week boundary, and lists each slot once: a
    span just short of a week that ends back in its first slot yields all
    ``n`` slots, from the first. A zero-length span yields the single slot
    containing ``s``. Spans of a week or longer would touch every slot and
    signal malformed metadata, so they are rejected.
    """
    if s > e:
        raise ValueError(f"span start {s} is after end {e}")
    if e - s >= SECONDS_PER_WEEK:
        raise ValueError(f"span of {e - s}s covers the whole week; metadata is malformed")
    first = _abs_slot(s, grid)
    n = grid.n
    last = min(_abs_slot(e, grid), first + n - 1)
    return [a % n + 1 for a in range(first, last + 1)]


@dataclass(frozen=True)
class BehaviorMatrix:
    """A user's viewing probability distribution over (slot, channel) pairs, as a dict."""

    user: str
    probs: Mapping[tuple[int, str], float]


@dataclass(frozen=True)
class PreferenceDicts:
    """Per-user preference vectors and item embeddings as dicts; a slot
    without a vector, or a user without any, falls back to the global one."""

    global_prefs: Mapping[str, Embedding]
    slot_prefs: Mapping[str, Mapping[int, Embedding]]
    item_embeddings: Mapping[str, Embedding]


def dot(a: Embedding, b: Embedding) -> float:
    """Sparse dot product, summed over the shorter vector in its order."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    return sum(w * get(i, 0.0) for i, w in a.items())


def behavior_row(bm: BehaviorMatrix, cand: Candidates, row: int = 0) -> UserBehavior:
    """The dict distribution as user row ``row`` over ``cand``'s grid cells,
    ascending; channels without a grid column can never match and are left
    out. Row 0 is the user of a model with one user."""
    col_of = {c: j for j, c in enumerate(cand.channels)}
    entries = sorted(((s - 1) * cand.ncols + col_of[c], p) for (s, c), p in bm.probs.items() if c in col_of)
    cells = np.array([c for c, _ in entries], dtype=np.int64)
    return UserBehavior(row, cells, np.array([p for _, p in entries]))


def model_row(model: PreferenceDicts, user: str) -> int:
    """``user``'s row in :func:`preference_model` of ``model``: users come in name order."""
    return sorted(model.global_prefs).index(user)


def preference_model(model: PreferenceDicts, cand: Candidates) -> PreferenceModel:
    """The dict model as arrays, scoring the candidates of ``cand``, one user
    row per user, in name order."""
    users = sorted(model.global_prefs)
    slot_items = [sorted((model.slot_prefs.get(u) or {}).items()) for u in users]
    vectors = [*model.global_prefs.values(), *model.item_embeddings.values()]
    vectors += [v for s in slot_items for _, v in s]
    prefs = Preferences(
        global_vecs=embedding_rows(model.global_prefs[u] for u in users),
        slot_ptr=np.cumsum([0, *map(len, slot_items)], dtype=np.int64),
        slots=np.array([slot for s in slot_items for slot, _ in s], dtype=np.int64),
        slot_vecs=embedding_rows(v for s in slot_items for _, v in s),
    )
    dims = 1 + max((d for vec in vectors for d in vec), default=0)
    items = build_item_index(embedding_rows(model.item_embeddings[pid] for pid in cand.ids), cand)
    return PreferenceModel(prefs=prefs, dims=dims, items=items)


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


def program_rows(cells: TensorCells, embeddings: Mapping[str, Embedding]) -> Rows:
    """The embeddings of the programs of ``cells`` as rows, by program code."""
    return embedding_rows(embeddings[p] for p in cells.program_names)


def row_dicts(rows: Rows) -> list[dict]:
    """Every row as a ``{column: value}`` dict, in stored order."""
    return [_vector(rows, i) for i in range(len(rows.ptr) - 1)]


def behavior_dicts(behavior: Behavior) -> dict[str, BehaviorMatrix]:
    """Every user's row as a dict, keyed in (slot, channel) order."""
    return {
        u: BehaviorMatrix(u, {(slot, c): p for slot, c, p in behavior.entries(u)}) for u in behavior.users
    }


def _vector(rows: Rows, i: int) -> Embedding:
    col, val = rows.row(i)
    return dict(zip(col.tolist(), val.tolist()))


def preference_vectors(
    prefs: Preferences, users: Iterable[str]
) -> tuple[dict[str, Embedding], dict[str, dict[int, Embedding]]]:
    """The global and the slot vectors as dicts, in stored order, keyed by
    the names ``users`` of the user rows."""
    slots = prefs.slots.tolist()
    ptr = prefs.slot_ptr.tolist()
    users = list(users)
    global_prefs = {u: _vector(prefs.global_vecs, i) for i, u in enumerate(users)}
    slot_prefs = {
        u: {slots[j]: _vector(prefs.slot_vecs, j) for j in range(ptr[i], ptr[i + 1])}
        for i, u in enumerate(users)
    }
    return global_prefs, slot_prefs


def l2_norm(vec: dict[int, float]) -> float:
    """Euclidean norm of a sparse vector."""
    return math.sqrt(sum(w * w for w in vec.values()))


def dense_behavior_matrices(bm: BehaviorMatrix, channels: list[str], n: int) -> np.ndarray:
    """The user's distribution as a dense slots-by-channels matrix."""
    mat = np.zeros((n, len(channels)))
    cols = {c: j for j, c in enumerate(channels)}
    for (slot, channel), p in bm.probs.items():
        if channel in cols:
            mat[slot - 1, cols[channel]] = p
    return mat


def dense_item_matrix(meta: ProgramMeta, channels: list[str], grid: TimeGrid) -> np.ndarray:
    """Indicator matrix of the program's slot span on its channel (the
    non-wrapped span definition: every slot between the start and end slots)."""
    n = grid.n
    mat = np.zeros((n, len(channels)))
    cols = {c: j for j, c in enumerate(channels)}
    ws = slot_of(meta.start, grid)
    we = slot_of(meta.end, grid)
    assert ws <= we, "oracle expects non-wrapping spans"
    if meta.channel in cols:
        mat[ws - 1 : we, cols[meta.channel]] = 1.0
    return mat


def dense_behavior_score(
    bm: BehaviorMatrix, meta: ProgramMeta, channels: list[str], grid: TimeGrid
) -> float:
    """MAX of the element-wise product of the two dense matrices."""
    prod = dense_behavior_matrices(bm, channels, grid.n) * dense_item_matrix(meta, channels, grid)
    return float(prod.max())


def scalar_behavior(bm: BehaviorMatrix, meta: ProgramMeta, grid: TimeGrid) -> tuple[float, int, str]:
    """Plain-python footnote form: max over the span on the program channel,
    earliest slot on ties (independent reimplementation)."""
    ws = slot_of(meta.start, grid)
    length = ((slot_of(meta.end, grid) - ws) % grid.n) + 1
    best, best_slot = -1.0, None
    for i in range(length):
        slot = (ws - 1 + i) % grid.n + 1
        p = bm.probs.get((slot, meta.channel), 0.0)
        if p > best:
            best, best_slot = p, slot
    return best, best_slot, meta.channel


def entry_sum(values: Iterable[float]) -> float:
    """``values`` added one after another to 0.0, as a plain loop adds them
    (``sum`` compensates its rounding from Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def scalar_preference(model: PreferenceDicts, user: str, meta: ProgramMeta, grid: TimeGrid) -> float:
    """The program's embedding against the user's vector for its start slot
    if the model has one, else the global vector: each entry's weight times
    the vector's value for its dimension, added in the embedding's order."""
    vec = model.slot_prefs.get(user, {}).get(slot_of(meta.start, grid), model.global_prefs[user])
    return entry_sum(w * vec.get(i, 0.0) for i, w in model.item_embeddings[meta.program].items())


def brute_stage_one(
    bm: BehaviorMatrix, metas: list[ProgramMeta], grid: TimeGrid
) -> list[tuple[ProgramMeta, float, tuple[int, str]]]:
    scored = []
    for meta in metas:
        s, slot, channel = scalar_behavior(bm, meta, grid)
        scored.append((meta, s, (slot, channel)))
    scored.sort(key=lambda e: (-e[1], e[0].start, e[0].program))
    return scored


def brute_two_stage(
    bm: BehaviorMatrix,
    model: PreferenceDicts,
    metas: list[ProgramMeta],
    grid: TimeGrid,
    k: int,
) -> list[tuple[str, float]]:
    """Reference two-stage: sort, group consecutive (slot, channel) runs, pick
    the per-run preference maximum (ties: earlier start, then id), flush."""
    stage_one = brute_stage_one(bm, metas, grid)
    runs: list[list[tuple[ProgramMeta, float]]] = []
    prev_key = None
    for meta, sb, key in stage_one:
        if not runs or key != prev_key:
            runs.append([])
        runs[-1].append((meta, sb))
        prev_key = key
    out: list[tuple[str, float]] = []
    for run in runs:
        if len(out) == k:
            break
        winner = min(
            run,
            key=lambda e: (-scalar_preference(model, bm.user, e[0], grid), e[0].start, e[0].program),
        )
        out.append((winner[0].program, winner[1]))
    return out


def brute_rank(scores: dict[str, float], metas: list[ProgramMeta]) -> list[str]:
    """Sort ids by score desc, start asc, id asc."""
    by_id = {m.program: m for m in metas}
    return sorted(scores, key=lambda pid: (-scores[pid], by_id[pid].start, pid))


def brute_rrf(
    bm: BehaviorMatrix,
    model: PreferenceDicts,
    metas: list[ProgramMeta],
    grid: TimeGrid,
    eta: float,
    w_b: float = 1.0,
    w_p: float = 1.0,
) -> list[tuple[str, float]]:
    """Reference (weighted) RRF: each program's 1-based ranks in the brute
    behavior and preference orders, ``w_b / (rank_b + eta) + w_p / (rank_p
    + eta)`` added as Python floats, ordered by ``brute_rank``."""
    rank_b = {m.program: i for i, (m, _, _) in enumerate(brute_stage_one(bm, metas, grid), 1)}
    pref = {m.program: scalar_preference(model, bm.user, m, grid) for m in metas}
    rank_p = {pid: i for i, pid in enumerate(brute_rank(pref, metas), 1)}
    fused = {pid: w_b / (rank_b[pid] + eta) + w_p / (rank_p[pid] + eta) for pid in rank_b}
    return [(pid, fused[pid]) for pid in brute_rank(fused, metas)]


def random_instance(rng: random.Random, max_programs: int = 50, max_channels: int = 8, max_slots: int = 12):
    """A random toy ranking instance with frequent score ties.

    Returns (grid, metas, behavior matrix, preference models by mode), as dicts.
    Spans never wrap the week so the dense oracle applies.
    """
    n = rng.choice([s for s in (4, 6, 8, 12) if s <= max_slots])
    grid = TimeGrid(n=n)
    slot_len = grid.slot_len
    n_channels = rng.randint(1, max_channels)
    channels = [f"c{j}" for j in range(n_channels)]
    n_programs = rng.randint(1, max_programs)

    metas = []
    for i in range(n_programs):
        channel = rng.choice(channels)
        start_slot = rng.randint(1, n - 1)
        start = MONDAY + (start_slot - 1) * slot_len + rng.choice((0, slot_len // 2))
        span_slots = rng.randint(1, min(3, n - start_slot))
        end = min(start + span_slots * slot_len, MONDAY + SECONDS_PER_WEEK - 1)
        metas.append(
            ProgramMeta(program=f"p{i:03d}", channel=channel, start=start, end=end, text="")
        )

    bm = random_behavior(rng, grid, channels, "u")
    items = {m.program: _random_vector(rng) for m in metas}
    global_prefs = {"u": _random_vector(rng)}
    slot_prefs = {"u": _random_slot_vectors(rng, grid)}
    models = {
        "global": PreferenceDicts(global_prefs=global_prefs, slot_prefs={}, item_embeddings=items),
        "time-aware": PreferenceDicts(
            global_prefs=global_prefs, slot_prefs=slot_prefs, item_embeddings=items
        ),
    }
    return grid, metas, bm, models


def random_behavior(rng: random.Random, grid: TimeGrid, channels: list[str], user: str) -> BehaviorMatrix:
    """A distribution over about half the (slot, channel) pairs, on coarse
    probability levels that force plenty of ties in both stages."""
    levels = [0.0, 0.1, 0.2, 0.3]
    weights = {}
    for slot in range(1, grid.n + 1):
        for channel in channels:
            if rng.random() < 0.5:
                w = rng.choice(levels)
                if w > 0:
                    weights[(slot, channel)] = w
    total = sum(weights.values())
    if not weights:
        weights = {(1, channels[0]): 1.0}
        total = 1.0
    return BehaviorMatrix(user=user, probs={k: v / total for k, v in weights.items()})


def _random_vector(rng: random.Random) -> dict[int, float]:
    return {d: rng.choice((0.25, 0.5, 1.0)) for d in rng.sample(range(6), rng.randint(1, 3))}


def _random_slot_vectors(rng: random.Random, grid: TimeGrid) -> dict[int, dict[int, float]]:
    return {slot: _random_vector(rng) for slot in range(1, grid.n + 1) if rng.random() < 0.4}


def random_users(
    rng: random.Random, grid: TimeGrid, metas: list[ProgramMeta], channels: list[str], n_users: int
) -> tuple[list[BehaviorMatrix], dict[str, PreferenceDicts]]:
    """``n_users`` random users, ``u00``, ``u01``, ..., of one catalogue, as
    :func:`random_instance` draws its one user: their distributions and the
    preference models by mode. Some users get no slot vector at all."""
    users = [f"u{i:02d}" for i in range(n_users)]
    bms = [random_behavior(rng, grid, channels, user) for user in users]
    items = {m.program: _random_vector(rng) for m in metas}
    global_prefs = {user: _random_vector(rng) for user in users}
    slot_prefs = {user: _random_slot_vectors(rng, grid) for user in users if rng.random() < 0.8}
    return bms, {
        "global": PreferenceDicts(global_prefs=global_prefs, slot_prefs={}, item_embeddings=items),
        "time-aware": PreferenceDicts(global_prefs=global_prefs, slot_prefs=slot_prefs, item_embeddings=items),
    }


def behavior_rows(bms: Iterable[BehaviorMatrix], cand: Candidates) -> Behavior:
    """Several dict distributions as one :class:`Behavior` over ``cand``'s
    grid, users sorted by name."""
    bms = sorted(bms, key=lambda bm: bm.user)
    rows = [behavior_row(bm, cand, i) for i, bm in enumerate(bms)]
    return Behavior(
        users=tuple(bm.user for bm in bms),
        channels=cand.channels,
        rows=Rows(
            np.cumsum([0, *(len(row.cells) for row in rows)], dtype=np.int64),
            np.concatenate([np.zeros(0, dtype=np.int64), *(row.cells for row in rows)]),
            np.concatenate([np.zeros(0), *(row.probs for row in rows)]),
        ),
    )


# ---------------------------------------------------------------------------
# tf-idf embeddings as dicts


def term_counts(text: str) -> Counter[str]:
    """How often each token occurs in ``text``, in order of first occurrence."""
    return Counter(tokenize(text))


def fit_dicts(texts: Iterable[str]) -> Vocabulary:
    """Reference `textenc.fit`: document frequencies counted text by text in a
    Counter, tokens indexed in alphabetical order."""
    df: Counter[str] = Counter()
    n_docs = 0
    for text in texts:
        n_docs += 1
        df.update(set(tokenize(text)))
    if n_docs == 0:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    if not df:
        raise DataError("corpus contains no tokens; all documents are empty")
    tokens = sorted(df)
    return Vocabulary(
        index={t: i for i, t in enumerate(tokens)},
        idf={t: math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in tokens},
    )


def encode_dict(vocab: Vocabulary, tf: Mapping[str, int]) -> Embedding:
    """Reference `textenc.encode` of one text's :func:`term_counts`: the
    L2-normalized tf-idf vector; out-of-vocabulary tokens are ignored and a
    text with no known tokens encodes to the zero vector."""
    vec: Embedding = {}
    for token, count in tf.items():
        i = vocab.index.get(token)
        if i is not None:
            vec[i] = count * vocab.idf[token]
    if vec:
        inv = 1.0 / math.sqrt(sum(w * w for w in vec.values()))
        vec = {i: w * inv for i, w in vec.items()}
    return vec


def mean_embedding(vectors: Iterable[Embedding]) -> Embedding:
    """Arithmetic mean of sparse vectors (no re-normalization)."""
    acc: dict[int, float] = {}
    count = 0
    for vec in vectors:
        count += 1
        for i, w in vec.items():
            acc[i] = acc.get(i, 0.0) + w
    if count == 0:
        raise ValueError("mean of zero embeddings is undefined")
    inv = 1.0 / count
    return {i: w * inv for i, w in acc.items()}


# ---------------------------------------------------------------------------
# ingestion, one record per line


def log_table(logs: Iterable[ViewingLog]) -> LogTable:
    """The records as a LogTable, names numbered in order of first appearance."""
    logs = list(logs)
    names = ({}, {}, {})
    codes = [
        [index.setdefault(name, len(index)) for name in column]
        for index, column in zip(
            names, ([g.user for g in logs], [g.program for g in logs], [g.channel for g in logs])
        )
    ]
    return LogTable(
        *(tuple(index) for index in names),
        *(np.array(c, dtype=np.int32) for c in codes),
        np.array([g.t for g in logs], dtype=np.int64),
        np.array([g.dt for g in logs], dtype=np.int64),
    )


def program_table(metas: Iterable[ProgramMeta]) -> ProgramTable:
    """The records as a ProgramTable, in order, ids and channels numbered in name order."""
    metas = list(metas)
    names = tuple(
        {name: code for code, name in enumerate(sorted(set(column)))}
        for column in ([m.program for m in metas], [m.channel for m in metas])
    )
    codes = [
        [index[name] for name in column]
        for index, column in zip(names, ([m.program for m in metas], [m.channel for m in metas]))
    ]
    return ProgramTable(
        *(tuple(index) for index in names),
        *(np.array(c, dtype=np.int32) for c in codes),
        np.array([m.start for m in metas], dtype=np.int64),
        np.array([m.end for m in metas], dtype=np.int64),
        tuple(m.text for m in metas),
    )


def candidates(metas: Iterable[ProgramMeta], grid: TimeGrid, channels: Collection[str] = ()) -> Candidates:
    """`build_candidates` of the records, put in candidate order, by (start, id)."""
    return build_candidates(program_table(sorted(metas, key=lambda m: (m.start, m.program))), grid, channels)


def program_records(table: ProgramTable) -> list[ProgramMeta]:
    """The table's rows as ProgramMeta records, in order."""
    return [
        ProgramMeta(table.program_names[p], table.channel_names[c], start, end, text)
        for p, c, start, end, text in zip(
            *(col.tolist() for col in (table.program, table.channel, table.start, table.end)), table.text
        )
    ]


def table_rows(table: LogTable) -> list[tuple[str, str, str, int, int]]:
    """The table's rows as (user, program, channel, t, dt) tuples, in order."""
    return [
        (table.user_names[u], table.program_names[p], table.channel_names[c], t, dt)
        for u, p, c, t, dt in zip(
            *(col.tolist() for col in (table.user, table.program, table.channel, table.t, table.dt))
        )
    ]


def parse_jsonl_records(lines: Iterable[bytes], fields, build, what: str) -> tuple[list, int]:
    """The record-per-line JSONL parser, over raw byte lines: a line that is not
    UTF-8 is malformed like any other."""
    out = []
    skipped = 0
    total = 0
    for raw in lines:
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            total += 1
            skipped += 1
            continue
        if not line:
            continue
        total += 1
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("not an object")
            values = []
            for name, typ in fields:
                v = rec[name]
                if not isinstance(v, typ) or isinstance(v, bool):
                    raise ValueError(f"field {name!r} has wrong type")
                values.append(v)
            out.append(build(*values))
        except (ValueError, KeyError, TypeError, RecursionError):  # RecursionError: nested too deep
            skipped += 1
    if total > 0 and skipped * 2 > total:
        raise DataError(f"{skipped} of {total} {what} lines are malformed; refusing input")
    return out, skipped


def _int64_log(user: str, program: str, channel: str, t: int, dt: int) -> ViewingLog:
    if not (-(2**63) <= t < 2**63 and dt < 2**63):
        raise ValueError("t or dt does not fit in int64")
    return ViewingLog(user, program, channel, t, dt)


def parse_log_records(lines: Iterable[bytes]) -> tuple[list[ViewingLog], int]:
    """Reference `parse_logs`: one ViewingLog per well-formed line."""
    fields = (("user", str), ("program", str), ("channel", str), ("t", int), ("dt", int))
    return parse_jsonl_records(lines, fields, _int64_log, "log")


def _int64_program(program: str, channel: str, start: int, end: int, text: str) -> ProgramMeta:
    if not (-(2**63) <= start < 2**63 and -(2**63) <= end < 2**63):
        raise ValueError("start or end does not fit in int64")
    return ProgramMeta(program, channel, start, end, text)


def parse_program_records(lines: Iterable[bytes]) -> tuple[list[ProgramMeta], int]:
    """Reference `parse_programs`: one ProgramMeta per well-formed line."""
    fields = (("program", str), ("channel", str), ("start", int), ("end", int), ("text", str))
    return parse_jsonl_records(lines, fields, _int64_program, "program")


def build_tensor_records(
    d_train: Iterable[ViewingLog],
    metas: Mapping[str, ProgramMeta],
    grid: TimeGrid,
    *,
    items: frozenset[str],
    users: frozenset[str],
) -> dict[str, dict[tuple[str, int, str], int]]:
    """Reference `build_tensor`: nested default dicts filled log by log, then
    put in the tensor's order: users by name, each user's cells by slot,
    channel, then program."""
    d_train = list(d_train)
    unknown = sorted({log.program for log in d_train} - metas.keys())
    if unknown:
        raise DataError(f"logs reference {len(unknown)} unknown program(s): {', '.join(unknown[:10])}")
    by_user: dict[str, dict[tuple[str, int, str], int]] = defaultdict(lambda: defaultdict(int))
    for log in d_train:
        if log.user not in users or log.program not in items:
            continue
        cell = (log.program, slot_of(log.t, grid), log.channel)
        by_user[log.user][cell] += 1
    return {
        u: dict(sorted(by_user[u].items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][0])))
        for u in sorted(by_user)
    }


def masks(
    d_train: LogTable, programs: ProgramTable, *, items: Collection[str], users: Collection[str]
) -> dict[str, np.ndarray]:
    """The keywords of `build_tensor` for the item names ``items`` and the
    user names ``users``: masks over the codes of ``programs`` and of
    ``d_train``'s users."""
    return {
        "items": np.array([p in items for p in programs.program_names], dtype=bool),
        "users": np.array([u in users for u in d_train.user_names], dtype=bool),
    }


def ground_truth_map(d_test: LogTable, items: frozenset[str]) -> dict[str, frozenset[str]]:
    """Per-user ground truth, the test programs in ``items`` each user watched,
    for every user with at least one such interaction, in order of first
    appearance: the names-level truths that `prepare` reads off codes."""
    keep = np.fromiter(map(items.__contains__, d_test.program_names), dtype=bool, count=len(d_test.program_names))
    rows = keep[d_test.program]
    acc: dict[int, set[int]] = {}
    for user, program in zip(d_test.user[rows].tolist(), d_test.program[rows].tolist()):
        acc.setdefault(user, set()).add(program)
    programs = d_test.program_names
    return {d_test.user_names[u]: frozenset(programs[p] for p in progs) for u, progs in acc.items()}


def ground_truth_records(d_test: Iterable[ViewingLog], items: frozenset[str]) -> dict[str, frozenset[str]]:
    """Reference `ground_truth_map`: a set per user, filled log by log."""
    acc: dict[str, set[str]] = defaultdict(set)
    for log in d_test:
        if log.program in items:
            acc[log.user].add(log.program)
    return {u: frozenset(progs) for u, progs in acc.items()}


# ---------------------------------------------------------------------------
# the model, built from the tensor as nested dicts


def tensor_dicts(cells: TensorCells) -> dict[str, dict[tuple[str, int, str], int]]:
    """The cells as nested dicts, keeping the order of users and of each user's cells."""
    ptr = cells.ptr.tolist()
    rows = [
        ((cells.program_names[p], s, cells.channel_names[c]), n)
        for p, s, c, n in zip(*(a.tolist() for a in (cells.program, cells.slot, cells.channel, cells.count)))
    ]
    return {u: dict(rows[lo:hi]) for u, lo, hi in zip(cells.users, ptr, ptr[1:])}


def tensor_cells(by_user: Mapping[str, Mapping[tuple[str, int, str], int]]) -> TensorCells:
    """Nested dicts as TensorCells in the tensor's order: names numbered in
    name order, users by name, each user's cells by slot, channel, then
    program."""
    users = sorted(by_user)
    programs = sorted({p for cells in by_user.values() for p, _, _ in cells})
    channels = sorted({c for cells in by_user.values() for _, _, c in cells})
    program_of = {p: i for i, p in enumerate(programs)}
    channel_of = {c: i for i, c in enumerate(channels)}
    rows = [
        row
        for u in users
        for row in sorted(
            (s, channel_of[c], program_of[p], n) for (p, s, c), n in by_user[u].items()
        )
    ]
    slot, channel, program, count = zip(*rows)
    return TensorCells(
        users=tuple(users),
        program_names=tuple(programs),
        channel_names=tuple(channels),
        ptr=np.cumsum([0, *(len(by_user[u]) for u in users)], dtype=np.int64),
        program=np.array(program, dtype=np.int32),
        slot=np.array(slot, dtype=np.int64),
        channel=np.array(channel, dtype=np.int32),
        count=np.array(count, dtype=np.int64),
    )


def behavior_matrix_dicts(by_user: Mapping[str, Mapping[tuple[str, int, str], int]], user: str) -> BehaviorMatrix:
    """Reference `behavior_matrix` for one user: the counts summed per (slot,
    channel) in the order of the user's cells, over their total."""
    marginal: dict[tuple[int, str], int] = {}
    for (_, slot, channel), count in by_user[user].items():
        marginal[(slot, channel)] = marginal.get((slot, channel), 0) + count
    total = sum(marginal.values())
    return BehaviorMatrix(user=user, probs={k: v / total for k, v in marginal.items()})


def preference_dicts(
    by_user: Mapping[str, Mapping[tuple[str, int, str], int]], embeddings: Mapping[str, Embedding]
) -> PreferenceDicts:
    """Reference `preference.build`: each user's distinct items, and each
    (user, slot)'s, averaged in id order; slots ascending."""
    global_prefs = {}
    slot_prefs = {}
    for user, cells in by_user.items():
        global_prefs[user] = mean_embedding(embeddings[i] for i in sorted({i for (i, _, _) in cells}))
        slots = sorted({s for (_, s, _) in cells})
        slot_prefs[user] = {
            s: mean_embedding(embeddings[i] for i in sorted({i for (i, w, _) in cells if w == s})) for s in slots
        }
    return PreferenceDicts(global_prefs=global_prefs, slot_prefs=slot_prefs, item_embeddings=dict(embeddings))
