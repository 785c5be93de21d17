"""Brute-force reference implementations and random-instance generators.

Everything here is deliberately independent of the library's ranking,
ingestion and model-building code paths: dense matrices, plain dict
arithmetic, python sorts, one `ViewingLog` record per log line, the
interaction tensor as nested dicts, ``{user: {(program, slot, channel): count}}``,
and the model as dicts: :class:`BehaviorMatrix` and :class:`PreferenceDicts`.
:func:`behavior_row` and :func:`preference_model` turn the dict model into
the arrays the rankers read; :func:`behavior_dicts` and
:func:`preference_vectors` turn built arrays back into dicts.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from tvrec.arrays import Rows
from tvrec.behavior import Behavior, UserBehavior
from tvrec.datamodel import LogTable, ProgramMeta, TensorCells, ViewingLog
from tvrec.errors import DataError
from tvrec.preference import PreferenceModel, Preferences, embedding_rows
from tvrec.ranker import Candidates, build_item_index
from tvrec.textenc import Embedding, mean_embedding
from tvrec.timegrid import SECONDS_PER_WEEK, TimeGrid, slot_of

MONDAY = 1_554_076_800  # 2019-04-01 00:00:00 UTC


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


def behavior_row(bm: BehaviorMatrix, cand: Candidates) -> UserBehavior:
    """The dict distribution as a row over ``cand``'s grid cells, ascending;
    channels without a grid column can never match and are left out."""
    col_of = {c: j for j, c in enumerate(cand.channels)}
    entries = sorted(((s - 1) * cand.ncols + col_of[c], p) for (s, c), p in bm.probs.items() if c in col_of)
    cells = np.array([c for c, _ in entries], dtype=np.int64)
    return UserBehavior(bm.user, cells, np.array([p for _, p in entries]))


def preference_model(model: PreferenceDicts, cand: Candidates) -> PreferenceModel:
    """The dict model as arrays, scoring the candidates of ``cand``."""
    users = sorted(model.global_prefs)
    slot_items = [sorted((model.slot_prefs.get(u) or {}).items()) for u in users]
    vectors = [*model.global_prefs.values(), *model.item_embeddings.values()]
    vectors += [v for s in slot_items for _, v in s]
    prefs = Preferences(
        users=tuple(users),
        global_vecs=embedding_rows(model.global_prefs[u] for u in users),
        slot_ptr=np.cumsum([0, *map(len, slot_items)], dtype=np.int64),
        slots=np.array([slot for s in slot_items for slot, _ in s], dtype=np.int64),
        slot_vecs=embedding_rows(v for s in slot_items for _, v in s),
    )
    dims = 1 + max((d for vec in vectors for d in vec), default=0)
    items = build_item_index(embedding_rows(model.item_embeddings[pid] for pid in cand.ids), cand)
    return PreferenceModel(prefs=prefs, dims=dims, items=items)


def behavior_dicts(behavior: Behavior) -> dict[str, BehaviorMatrix]:
    """Every user's row as a dict, keyed in (slot, channel) order."""
    return {
        u: BehaviorMatrix(u, {(slot, c): p for slot, c, p in behavior.entries(u)}) for u in behavior.users
    }


def _vector(rows: Rows, i: int) -> Embedding:
    col, val = rows.row(i)
    return dict(zip(col.tolist(), val.tolist()))


def preference_vectors(prefs: Preferences) -> tuple[dict[str, Embedding], dict[str, dict[int, Embedding]]]:
    """The global and the slot vectors as dicts, in stored order."""
    slots = prefs.slots.tolist()
    ptr = prefs.slot_ptr.tolist()
    global_prefs = {u: _vector(prefs.global_vecs, i) for i, u in enumerate(prefs.users)}
    slot_prefs = {
        u: {slots[j]: _vector(prefs.slot_vecs, j) for j in range(ptr[i], ptr[i + 1])}
        for i, u in enumerate(prefs.users)
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


def scalar_preference(model: PreferenceDicts, user: str, meta: ProgramMeta, grid: TimeGrid) -> float:
    # The user's vector for the start slot if the model has one, else the global vector.
    vec = model.slot_prefs.get(user, {}).get(slot_of(meta.start, grid), model.global_prefs[user])
    emb = model.item_embeddings[meta.program]
    return sum(w * emb.get(i, 0.0) for i, w in vec.items())


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

    # Coarse probability levels force plenty of ties in both stages.
    levels = [0.0, 0.1, 0.2, 0.3]
    weights = {}
    for slot in range(1, n + 1):
        for channel in channels:
            if rng.random() < 0.5:
                w = rng.choice(levels)
                if w > 0:
                    weights[(slot, channel)] = w
    total = sum(weights.values())
    if not weights:
        weights = {(1, channels[0]): 1.0}
        total = 1.0
    bm = BehaviorMatrix(user="u", probs={k: v / total for k, v in weights.items()})

    def rand_vec() -> dict[int, float]:
        return {d: rng.choice((0.25, 0.5, 1.0)) for d in rng.sample(range(6), rng.randint(1, 3))}

    items = {m.program: rand_vec() for m in metas}
    global_prefs = {"u": rand_vec()}
    slot_prefs = {
        "u": {slot: rand_vec() for slot in range(1, n + 1) if rng.random() < 0.4}
    }
    models = {
        "global": PreferenceDicts(global_prefs=global_prefs, slot_prefs={}, item_embeddings=items),
        "time-aware": PreferenceDicts(
            global_prefs=global_prefs, slot_prefs=slot_prefs, item_embeddings=items
        ),
    }
    return grid, metas, bm, models


# ---------------------------------------------------------------------------
# ingestion, one record per log line


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
        except (ValueError, KeyError, TypeError):
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


def build_tensor_records(
    d_train: Iterable[ViewingLog],
    metas: Mapping[str, ProgramMeta],
    grid: TimeGrid,
    *,
    items: frozenset[str],
    users: frozenset[str],
) -> dict[str, dict[tuple[str, int, str], int]]:
    """Reference `build_tensor`: nested default dicts filled log by log."""
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
    return {u: dict(cells) for u, cells in by_user.items() if cells}


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
    """Nested dicts as TensorCells, names numbered in order of first appearance."""
    programs: dict[str, int] = {}
    channels: dict[str, int] = {}
    rows = [
        (programs.setdefault(p, len(programs)), s, channels.setdefault(c, len(channels)), n)
        for cells in by_user.values()
        for (p, s, c), n in cells.items()
    ]
    cols = list(zip(*rows))
    return TensorCells(
        users=tuple(by_user),
        program_names=tuple(programs),
        channel_names=tuple(channels),
        ptr=np.cumsum([0, *map(len, by_user.values())], dtype=np.int64),
        program=np.array(cols[0], dtype=np.int32),
        slot=np.array(cols[1], dtype=np.int64),
        channel=np.array(cols[2], dtype=np.int32),
        count=np.array(cols[3], dtype=np.int64),
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
