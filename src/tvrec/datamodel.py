"""Log and program-metadata ingestion, channel-flip filtering, time-based
train/test splitting, interaction-tensor construction, and ground-truth
extraction.

Viewing logs live in one :class:`LogTable` of numpy columns, not one object
per line. :func:`parse_logs` interns user, program and channel names into
int32 codes as it reads. The stages after it work on the columns: the flip
filter and the split are boolean masks over the table, the user and item
restrictions are lookup arrays indexed by code, and the tensor is one grouping
of equal (user, program, slot, channel) rows with their counts. Program
metadata stays a list of :class:`ProgramMeta` records.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Iterable, Mapping, TextIO

import numpy as np

from .errors import DataError
from .timegrid import _EPOCH_TO_MONDAY, SECONDS_PER_WEEK, TimeGrid

DEFAULT_MIN_DURATION = 900  # channel-flip threshold, seconds
DEFAULT_TRAIN_SECS = 90 * 86_400
DEFAULT_TEST_SECS = 7 * 86_400

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True, slots=True)
class ViewingLog:
    """One channel-switch event: user switched to ``channel`` broadcasting
    ``program`` at UTC timestamp ``t`` and stayed for ``dt`` seconds.

    :func:`tvrec.synth.gen_logs` emits these records; ingestion reads logs
    into a :class:`LogTable` instead."""

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


@dataclass(frozen=True, eq=False)
class LogTable:
    """Viewing logs as columns: row ``i`` is one channel-switch event, in file order.

    ``user``, ``program`` and ``channel`` are int32 codes into the name tuples
    ``user_names``, ``program_names`` and ``channel_names``; ``t`` (UTC
    seconds) and ``dt`` (seconds watched) are int64. :func:`parse_logs`
    numbers names in order of first appearance. A table cut from another by
    :meth:`take` keeps its name tuples, so codes compare across the two and a
    name may have no row left.
    """

    user_names: tuple[str, ...]
    program_names: tuple[str, ...]
    channel_names: tuple[str, ...]
    user: np.ndarray
    program: np.ndarray
    channel: np.ndarray
    t: np.ndarray
    dt: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.user) == len(self.program) == len(self.channel) == len(self.t) == len(self.dt):
            raise ValueError("log columns differ in length")

    def __len__(self) -> int:
        return len(self.t)

    def take(self, rows: np.ndarray) -> LogTable:
        """The rows a boolean mask or an index array selects, in its order."""
        return replace(
            self,
            user=self.user[rows],
            program=self.program[rows],
            channel=self.channel[rows],
            t=self.t[rows],
            dt=self.dt[rows],
        )


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
    d_train: LogTable
    d_test: LogTable
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


def open_jsonl(path: str) -> TextIO:
    """Open a JSONL input for :func:`parse_logs` or :func:`parse_programs`.

    Lines split as in any text file. A byte that is not UTF-8 becomes a lone
    surrogate instead of failing the read, so the parsers can skip and count
    just the line that holds it.
    """
    return open(path, encoding="utf-8", errors="surrogateescape")


_scan_once = json.JSONDecoder().scan_once


def _parse_jsonl(
    lines: Iterable[str],
    fields: tuple[str, ...],
    build: Callable[..., None],
    what: str,
) -> int:
    """Call ``build`` with the ``fields`` of each non-blank line, in order,
    and return the number of malformed lines.

    A line is malformed when it holds a lone surrogate (a byte that was not
    UTF-8, see :func:`open_jsonl`), is not exactly one JSON object (or nests
    too deep to decode), lacks a field, or makes ``build`` raise
    ``ValueError``. ``build`` checks the field types: the decoder yields exact
    ``str`` and ``int``, so ``type(v) is int`` is the rule that a bool is not
    an int. Raises :class:`DataError` when more than half of the lines are
    malformed.
    """
    get = operator.itemgetter(*fields)
    skipped = 0
    total = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        total += 1
        try:
            if not line.isascii():
                line.encode()  # raises UnicodeEncodeError on a lone surrogate
            rec, end = _scan_once(line, 0)
            if end != len(line) or type(rec) is not dict:
                raise ValueError("not exactly one JSON object")
            build(*get(rec))
        except (ValueError, KeyError, TypeError, StopIteration, RecursionError):
            skipped += 1
    if total > 0 and skipped * 2 > total:
        raise DataError(f"{skipped} of {total} {what} lines are malformed; refusing input")
    return skipped


def parse_logs(lines: Iterable[str]) -> tuple[LogTable, int]:
    """Parse JSONL viewing logs into a :class:`LogTable`, in file order.

    Malformed lines are skipped and counted; returns ``(table, skipped)``.
    Besides the rules of every JSONL input, a log line is malformed when its
    ``dt`` is negative or when ``t`` or ``dt`` does not fit in int64, since
    neither column could hold it. Raises :class:`DataError` when more than
    half of the lines are malformed.
    """
    names: tuple[dict[str, int], ...] = ({}, {}, {})
    users, programs, channels = names
    cols: tuple[list[int], ...] = ([], [], [], [], [])
    add_user, add_program, add_channel, add_t, add_dt = (col.append for col in cols)

    def add(user: str, program: str, channel: str, t: int, dt: int) -> None:
        if type(user) is not str or type(program) is not str or type(channel) is not str:
            raise ValueError("a name field is not a string")
        if type(t) is not int or type(dt) is not int:
            raise ValueError("t or dt is not an integer")
        if dt < 0:
            raise ValueError(f"negative duration {dt}")
        if not (_INT64_MIN <= t <= _INT64_MAX and dt <= _INT64_MAX):
            raise ValueError("t or dt does not fit in int64")
        add_user(users.setdefault(user, len(users)))
        add_program(programs.setdefault(program, len(programs)))
        add_channel(channels.setdefault(channel, len(channels)))
        add_t(t)
        add_dt(dt)

    skipped = _parse_jsonl(lines, ("user", "program", "channel", "t", "dt"), add, "log")
    table = LogTable(
        *(tuple(index) for index in names),
        *(np.array(col, dtype=np.int32) for col in cols[:3]),
        *(np.array(col, dtype=np.int64) for col in cols[3:]),
    )
    return table, skipped


def parse_programs(lines: Iterable[str]) -> tuple[list[ProgramMeta], int]:
    """Parse JSONL program metadata; same skip-and-count policy as logs."""
    metas: list[ProgramMeta] = []

    def add(program: str, channel: str, start: int, end: int, text: str) -> None:
        if type(program) is not str or type(channel) is not str or type(text) is not str:
            raise ValueError("a text field is not a string")
        if type(start) is not int or type(end) is not int:
            raise ValueError("start or end is not an integer")
        metas.append(ProgramMeta(program, channel, start, end, text))

    skipped = _parse_jsonl(lines, ("program", "channel", "start", "end", "text"), add, "program")
    return metas, skipped


def filter_flips(logs: LogTable, dt_min: int = DEFAULT_MIN_DURATION) -> LogTable:
    """Drop channel-flip events: keep exactly the logs with ``dt >= dt_min``."""
    if dt_min < 0:
        raise ValueError("dt_min must be non-negative")
    return logs.take(logs.dt >= dt_min)


def split(logs: LogTable, metas: Iterable[ProgramMeta], spec: SplitSpec) -> Split:
    """Split logs and programs by time around ``spec.t_split``.

    A program belongs to the train (test) item set when its broadcast *start*
    falls inside the train (test) window; the windows are disjoint, so the two
    item sets are disjoint by construction.
    """
    lo, mid = spec.t_split - spec.dt_train, spec.t_split
    hi = spec.t_split + spec.dt_test
    t = logs.t
    d_train = logs.take((lo <= t) & (t < mid))
    d_test = logs.take((mid <= t) & (t < hi))
    if not len(d_train):
        raise DataError(f"no logs in train window [{lo}, {mid}); split is outside the data range")
    if not len(d_test):
        raise DataError(f"no logs in test window [{mid}, {hi}); split is outside the data range")
    i_train = frozenset(m.program for m in metas if lo <= m.start < mid)
    i_test = frozenset(m.program for m in metas if mid <= m.start < hi)
    return Split(d_train, d_test, i_train, i_test)


def _names_of(names: tuple[str, ...], codes: np.ndarray) -> frozenset[str]:
    return frozenset(names[c] for c in np.unique(codes).tolist())


def users_in_both(d_train: LogTable, d_test: LogTable) -> frozenset[str]:
    """Users appearing at least once in both split halves (the user set U)."""
    return _names_of(d_train.user_names, d_train.user) & _names_of(d_test.user_names, d_test.user)


def _member(names: tuple[str, ...], keep: Collection[str]) -> np.ndarray:
    """A lookup array indexed by code: whether each name is in ``keep``."""
    return np.fromiter(map(keep.__contains__, names), dtype=bool, count=len(names))


def _slot_column(t: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """:func:`tvrec.timegrid.slot_of` over an int64 column.

    ``t`` and the offsets are reduced modulo the week first. The grid's slots
    tile exactly one week, so the slot does not change, and the sum stays far
    from the int64 limits where numpy would wrap.
    """
    shift = (grid.utc_offset + _EPOCH_TO_MONDAY) % SECONDS_PER_WEEK
    return (t % SECONDS_PER_WEEK + shift) // grid.slot_len % grid.n + 1


def build_tensor(
    d_train: LogTable,
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
    has a positive total. ``by_user`` holds users, and each user's cells, in
    order of first appearance in ``d_train``.
    """
    present = map(d_train.program_names.__getitem__, np.unique(d_train.program).tolist())
    unknown = sorted(name for name in present if name not in metas)
    if unknown:
        shown = ", ".join(unknown[:10])
        more = f" (+{len(unknown) - 10} more)" if len(unknown) > 10 else ""
        raise DataError(f"logs reference {len(unknown)} unknown program(s): {shown}{more}")

    in_users = _member(d_train.user_names, users)
    in_items = _member(d_train.program_names, items)
    counted = d_train.take(in_users[d_train.user] & in_items[d_train.program])
    cols = (counted.user, counted.program, _slot_column(counted.t, grid), counted.channel)
    # Group equal cells with a stable sort, so the first row of each group is
    # the cell's first appearance. A key packed into one int64 could overflow.
    order = np.lexsort(cols[::-1])
    ordered = [c[order] for c in cols]
    new_cell = np.ones(len(order), dtype=bool)
    new_cell[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in ordered])
    starts = np.flatnonzero(new_cell)
    first = order[starts]
    counts = np.diff(starts, append=len(order))
    user, program, slot, channel = (c[starts] for c in ordered)
    # Users by their first row, then each user's cells by theirs: the order in
    # which counting row by row would first meet them.
    user_first = np.full(len(counted.user_names), len(order))
    np.minimum.at(user_first, user, first)
    by_first = np.lexsort((first, user_first[user]))
    user, program, slot, channel, counts = (a[by_first] for a in (user, program, slot, channel, counts))

    cells = list(
        zip(
            np.array(counted.program_names, dtype=object)[program].tolist(),
            slot.tolist(),
            np.array(counted.channel_names, dtype=object)[channel].tolist(),
        )
    )
    counts = counts.tolist()
    user_starts = np.flatnonzero(np.diff(user, prepend=-1)).tolist()
    by_user = {
        counted.user_names[u]: dict(zip(cells[lo:hi], counts[lo:hi]))
        for u, lo, hi in zip(user[user_starts].tolist(), user_starts, user_starts[1:] + [len(cells)])
    }
    channels = _names_of(counted.channel_names, counted.channel)
    return InteractionTensor(by_user=by_user, users=frozenset(by_user), channels=channels)


def ground_truth_map(d_test: LogTable, items: frozenset[str]) -> dict[str, frozenset[str]]:
    """Per-user ground truth, the test programs in ``items`` each user watched,
    for every user with at least one such interaction, in order of first
    appearance."""
    rows = _member(d_test.program_names, items)[d_test.program]
    acc: dict[int, set[int]] = {}
    for user, program in zip(d_test.user[rows].tolist(), d_test.program[rows].tolist()):
        acc.setdefault(user, set()).add(program)
    programs = d_test.program_names
    return {d_test.user_names[u]: frozenset(programs[p] for p in progs) for u, progs in acc.items()}


@dataclass(frozen=True)
class Prepared:
    """Output of the full preprocessing pipeline over one dataset."""

    split: Split
    tensor: InteractionTensor
    truths: Mapping[str, frozenset[str]]
    metas: Mapping[str, ProgramMeta]
    summary: dict = field(compare=False)


def prepare(
    logs: LogTable,
    metas: Iterable[ProgramMeta],
    grid: TimeGrid,
    spec: SplitSpec,
    dt_min: int = DEFAULT_MIN_DURATION,
) -> Prepared:
    """Run flip filtering, splitting, U restriction, tensor construction, and
    ground-truth extraction in one pass. ``grid`` slots the training logs into
    the tensor; the summary mirrors the usual dataset-statistics table, plus
    the logs dropped as flips and the users of the split halves outside U."""
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
    split_users = np.unique(np.concatenate((sp.d_train.user, sp.d_test.user)))
    summary = {
        "t_split": spec.t_split,
        "d_train": len(sp.d_train),
        "d_test": len(sp.d_test),
        "i_train": len(sp.i_train),
        "i_test": len(sp.i_test),
        "channels": len(tensor.channels),
        "users": len(tensor.users),
        "mean_truth_size": (sum(truth_sizes) / len(truth_sizes)) if truth_sizes else 0.0,
        "flips_dropped": len(logs) - len(kept),
        "users_outside_both_halves": len(split_users) - len(users),
    }
    return Prepared(split=sp, tensor=tensor, truths=truths, metas=by_id, summary=summary)
