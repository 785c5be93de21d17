"""Log and program-metadata ingestion, channel-flip filtering, time-based
train/test splitting, interaction-tensor construction, and ground-truth
extraction."""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DataError
from .timegrid import SECONDS_PER_WEEK, TimeGrid, slot_of

DEFAULT_MIN_DURATION = 900  # channel-flip threshold, seconds
DEFAULT_TRAIN_SECS = 90 * 86_400
DEFAULT_TEST_SECS = 7 * 86_400


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
        if self.start >= self.end:
            raise ValueError(f"program {self.program!r}: start must precede end")
        if self.end - self.start >= SECONDS_PER_WEEK:
            raise ValueError(f"program {self.program!r}: broadcast spans a week or more")


@dataclass(frozen=True)
class SplitSpec:
    """Time-based split: train window ``[t_split - dt_train, t_split)``,
    test window ``[t_split, t_split + dt_test)``."""

    t_split: int
    dt_train: int = DEFAULT_TRAIN_SECS
    dt_test: int = DEFAULT_TEST_SECS

    def __post_init__(self) -> None:
        if self.dt_train <= 0 or self.dt_test <= 0:
            raise ValueError("split window durations must be positive")


@dataclass(frozen=True)
class Split:
    d_train: tuple[ViewingLog, ...]
    d_test: tuple[ViewingLog, ...]
    i_train: frozenset[str]
    i_test: frozenset[str]


@dataclass(frozen=True)
class InteractionTensor:
    """Sparse counts over (user, item, slot, channel), indexed by user.

    Absent cells are zero; stored counts are positive. ``users`` is the
    restricted user set U, ``channels`` the channels observed in the counted
    logs.
    """

    by_user: Mapping[str, Mapping[tuple[str, int, str], int]]
    users: frozenset[str]
    channels: frozenset[str]


def _parse_jsonl(
    lines: Iterable[str],
    fields: tuple[tuple[str, type], ...],
    build,
    what: str,
) -> tuple[list, int]:
    out = []
    skipped = 0
    total = 0
    for line in lines:
        line = line.strip()
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


def parse_logs(lines: Iterable[str]) -> tuple[list[ViewingLog], int]:
    """Parse JSONL viewing logs, in file order.

    Malformed lines are skipped and counted; returns ``(logs, skipped)``.
    Raises :class:`DataError` when more than half of the lines are malformed.
    """
    fields = (("user", str), ("program", str), ("channel", str), ("t", int), ("dt", int))
    return _parse_jsonl(lines, fields, ViewingLog, "log")


def parse_programs(lines: Iterable[str]) -> tuple[list[ProgramMeta], int]:
    """Parse JSONL program metadata; same skip-and-count policy as logs."""
    fields = (("program", str), ("channel", str), ("start", int), ("end", int), ("text", str))
    return _parse_jsonl(lines, fields, ProgramMeta, "program")


def filter_flips(logs: Iterable[ViewingLog], dt_min: int = DEFAULT_MIN_DURATION) -> list[ViewingLog]:
    """Drop channel-flip events: keep exactly the logs with ``dt >= dt_min``."""
    if dt_min < 0:
        raise ValueError("dt_min must be non-negative")
    return [log for log in logs if log.dt >= dt_min]


def split(logs: Iterable[ViewingLog], metas: Iterable[ProgramMeta], spec: SplitSpec) -> Split:
    """Split logs and programs by time around ``spec.t_split``.

    A program belongs to the train (test) item set when its broadcast *start*
    falls inside the train (test) window; the windows are disjoint, so the two
    item sets are disjoint by construction.
    """
    lo, mid = spec.t_split - spec.dt_train, spec.t_split
    hi = spec.t_split + spec.dt_test
    d_train = tuple(log for log in logs if lo <= log.t < mid)
    d_test = tuple(log for log in logs if mid <= log.t < hi)
    if not d_train:
        raise DataError(f"no logs in train window [{lo}, {mid}); split is outside the data range")
    if not d_test:
        raise DataError(f"no logs in test window [{mid}, {hi}); split is outside the data range")
    i_train = frozenset(m.program for m in metas if lo <= m.start < mid)
    i_test = frozenset(m.program for m in metas if mid <= m.start < hi)
    return Split(d_train, d_test, i_train, i_test)


def users_in_both(d_train: Iterable[ViewingLog], d_test: Iterable[ViewingLog]) -> frozenset[str]:
    """Users appearing at least once in both split halves (the user set U)."""
    return frozenset(log.user for log in d_train) & frozenset(log.user for log in d_test)


def build_tensor(
    d_train: Iterable[ViewingLog],
    metas: Mapping[str, ProgramMeta],
    grid: TimeGrid,
    *,
    items: frozenset[str],
    users: frozenset[str],
) -> InteractionTensor:
    """Count interactions per (user, item, slot, channel) cell.

    Every log's program must appear in ``metas``. Only logs of a user in
    ``users`` (the set U) watching a program in ``items`` (the train item set)
    are counted; the others stay in the data but do not enter the tensor.
    Users left without any counted cell are dropped so that every stored user
    has a positive total.
    """
    d_train = list(d_train)
    unknown = sorted({log.program for log in d_train} - metas.keys())
    if unknown:
        shown = ", ".join(unknown[:10])
        more = f" (+{len(unknown) - 10} more)" if len(unknown) > 10 else ""
        raise DataError(f"logs reference {len(unknown)} unknown program(s): {shown}{more}")

    by_user: dict[str, dict[tuple[str, int, str], int]] = defaultdict(lambda: defaultdict(int))
    channels: set[str] = set()
    for log in d_train:
        if log.user not in users or log.program not in items:
            continue
        cell = (log.program, slot_of(log.t, grid), log.channel)
        by_user[log.user][cell] += 1
        channels.add(log.channel)

    frozen = {u: dict(cells) for u, cells in by_user.items() if cells}
    return InteractionTensor(by_user=frozen, users=frozenset(frozen), channels=frozenset(channels))


def ground_truth_map(d_test: Iterable[ViewingLog], items: frozenset[str]) -> dict[str, frozenset[str]]:
    """Per-user ground truth, the test programs in ``items`` each user watched,
    for every user with at least one such interaction."""
    acc: dict[str, set[str]] = defaultdict(set)
    for log in d_test:
        if log.program in items:
            acc[log.user].add(log.program)
    return {u: frozenset(progs) for u, progs in acc.items()}


@dataclass(frozen=True)
class Prepared:
    """Output of the full preprocessing pipeline over one dataset."""

    split: Split
    tensor: InteractionTensor
    truths: Mapping[str, frozenset[str]]
    metas: Mapping[str, ProgramMeta]
    summary: dict = field(compare=False)


def prepare(
    logs: Iterable[ViewingLog],
    metas: Iterable[ProgramMeta],
    grid: TimeGrid,
    spec: SplitSpec,
    dt_min: int = DEFAULT_MIN_DURATION,
) -> Prepared:
    """Run flip filtering, splitting, U restriction, tensor construction, and
    ground-truth extraction in one pass. ``grid`` slots the training logs into
    the tensor; the summary mirrors the usual dataset-statistics table."""
    meta_list = list(metas)
    by_id: dict[str, ProgramMeta] = {}
    for m in meta_list:
        if m.program in by_id:
            raise DataError(f"duplicate program id {m.program!r} in metadata")
        by_id[m.program] = m

    kept = filter_flips(logs, dt_min)
    sp = split(kept, meta_list, spec)
    users = users_in_both(sp.d_train, sp.d_test)
    tensor = build_tensor(sp.d_train, by_id, grid, items=sp.i_train, users=users)
    truths = {
        u: progs
        for u, progs in ground_truth_map(sp.d_test, sp.i_test).items()
        if u in tensor.users
    }
    truth_sizes = [len(v) for v in truths.values()]
    summary = {
        "t_split": spec.t_split,
        "d_train": len(sp.d_train),
        "d_test": len(sp.d_test),
        "i_train": len(sp.i_train),
        "i_test": len(sp.i_test),
        "channels": len(tensor.channels),
        "users": len(tensor.users),
        "mean_truth_size": (sum(truth_sizes) / len(truth_sizes)) if truth_sizes else 0.0,
    }
    return Prepared(split=sp, tensor=tensor, truths=truths, metas=by_id, summary=summary)
