"""Log and program-metadata ingestion, channel-flip filtering, time-based
train/test splitting, interaction-tensor construction, and ground-truth
extraction.

Viewing logs live in one :class:`LogTable` of numpy columns, not one object
per line. :func:`parse_logs` interns user, program and channel names into
int32 codes as it reads. The stages after it work on the columns: the flip
filter and the split are boolean masks over the table, the user and item
restrictions are lookup arrays indexed by code, and the tensor is one grouping
of equal (user, program, slot, channel) rows with their counts, kept as the
columns of :class:`TensorCells`. Program metadata stays a list of
:class:`ProgramMeta` records.

A prepared dataset has one type, :class:`Prepared`: the tensor cells over
sorted program and channel name tables, every program's text, the test
programs' schedule and the truths as CSR (compressed sparse row) arrays.
:func:`prepare` returns it, and the model is built from it as it is. The
prepared file carries it from `prep` to `build`, so the inputs are parsed
once: :func:`dump_prepared` writes its arrays as they are and
:func:`load_prepared` reads them back; no other module knows the format. It
is an uncompressed ``.npz`` of one-dimensional arrays, written and read
through the codec of :mod:`tvrec.arrays` with ``allow_pickle=False``:

- ``manifest``: UTF-8 JSON holding the schema version and what the caller
  passed, which the loader must match exactly (the CLI passes the grid, the
  preprocessing values and the sha256 of both inputs);
- name tables ``users`` (in tensor order), ``programs`` (every train and
  test program id, sorted), ``texts`` (one per program) and ``channels``
  (sorted): UTF-8 bytes, with int64 ``<table>_off`` offsets counted in code
  points;
- the tensor cells, ``cell_<column>`` for each column of
  :class:`TensorCells`: ``cell_ptr`` (int64 user offsets), ``cell_program``
  and ``cell_channel`` (int32 codes), ``cell_slot`` and ``cell_count``
  (int64);
- the test programs, by id: ``test_program`` and ``test_channel`` (int32
  codes), ``test_start`` and ``test_end`` (int64);
- the truths as CSR over the users: ``truth_ptr`` (int64) and
  ``truth_program`` (int32 codes, ascending in each row).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterable, Mapping, TextIO

import numpy as np

from .arrays import (
    check_arrays,
    decode_names,
    encode_names,
    in_range,
    is_ptr,
    name_arrays,
    read_npz,
    require,
    write_npz,
)
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


@dataclass(frozen=True, eq=False)
class TensorCells:
    """The interaction tensor: positive counts over (user, item, slot, channel)
    cells, as columns. Absent cells are zero.

    User ``users[i]``'s cells are rows ``ptr[i]:ptr[i + 1]``. Users come in
    the order of their first counted log, and each user's cells in the order
    of their first log. ``program`` and ``channel`` are int32 codes into
    ``program_names`` and ``channel_names``, ``slot`` the int64 1-based slot,
    ``count`` the positive int64 count. A name may have no cell.
    """

    users: tuple[str, ...]
    program_names: tuple[str, ...]
    channel_names: tuple[str, ...]
    ptr: np.ndarray
    program: np.ndarray
    slot: np.ndarray
    channel: np.ndarray
    count: np.ndarray

    def programs(self) -> frozenset[str]:
        """The programs with a cell."""
        return _names_of(self.program_names, self.program)

    def channels(self) -> frozenset[str]:
        """The channels of the counted logs: those with a cell."""
        return _names_of(self.channel_names, self.channel)


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
) -> TensorCells:
    """Count interactions per (user, item, slot, channel) cell, as columns.

    Every log's program must appear in ``metas``. Only logs of a user in
    ``users`` (the set U) watching a program in ``items`` (the train item set)
    are counted; the others stay in the data but do not enter the tensor.
    Users left without any counted cell are dropped so that every stored user
    has a positive total. Users, and each user's cells, are in order of first
    appearance in ``d_train``; codes index the name tuples of ``d_train``.
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

    user_starts = np.flatnonzero(np.diff(user, prepend=-1))
    return TensorCells(
        users=tuple(map(counted.user_names.__getitem__, user[user_starts].tolist())),
        program_names=counted.program_names,
        channel_names=counted.channel_names,
        ptr=np.append(user_starts, len(user)).astype(np.int64),
        program=program,
        slot=slot,
        channel=channel,
        count=counts.astype(np.int64),
    )


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


@dataclass(frozen=True, eq=False)
class Prepared:
    """A prepared dataset: the tensor, every program's text, the test
    programs' schedule and the truths, all over one set of name tables.

    ``cells.program_names`` are the train and test program ids, sorted, and
    ``texts`` their texts; ``cells.channel_names`` are the channels of the
    cells and of the test programs, sorted. The test programs, by id, are the
    program codes ``test_program``, with ``test_channel`` codes and their
    ``test_start`` and ``test_end``. User ``cells.users[i]``'s truths are the
    program codes ``truth_program[truth_ptr[i]:truth_ptr[i + 1]]``, ascending.
    """

    cells: TensorCells
    texts: tuple[str, ...]
    test_program: np.ndarray
    test_channel: np.ndarray
    test_start: np.ndarray
    test_end: np.ndarray
    truth_ptr: np.ndarray
    truth_program: np.ndarray

    def corpus(self) -> list[tuple[str, str]]:
        """``(program id, text)`` of every train and test program, by id."""
        return list(zip(self.cells.program_names, self.texts))

    def test_metas(self) -> list[ProgramMeta]:
        """The test programs, by id."""
        programs, channels = self.cells.program_names, self.cells.channel_names
        return [
            ProgramMeta(programs[p], channels[c], start, end, self.texts[p])
            for p, c, start, end in zip(
                *(a.tolist() for a in (self.test_program, self.test_channel, self.test_start, self.test_end))
            )
        ]

    def truths(self) -> dict[str, tuple[str, ...]]:
        """Each user with a truth, in sorted order, to their sorted test programs."""
        items = list(map(self.cells.program_names.__getitem__, self.truth_program.tolist()))
        ptr = self.truth_ptr.tolist()
        rows = {u: tuple(items[lo:hi]) for u, lo, hi in zip(self.cells.users, ptr, ptr[1:]) if hi > lo}
        return dict(sorted(rows.items()))


def _recode(names: tuple[str, ...], code_of: Mapping[str, int], codes: np.ndarray) -> np.ndarray:
    """``codes`` into ``names`` as codes into the table that ``code_of`` numbers."""
    lookup = np.fromiter((code_of.get(n, -1) for n in names), dtype=np.int32, count=len(names))
    return lookup[codes]


def prepare(
    logs: LogTable,
    metas: Iterable[ProgramMeta],
    grid: TimeGrid,
    spec: SplitSpec,
    dt_min: int = DEFAULT_MIN_DURATION,
) -> tuple[Prepared, dict]:
    """Run flip filtering, splitting, U restriction, tensor construction, and
    ground-truth extraction in one pass; returns the :class:`Prepared`
    dataset and its summary. ``grid`` slots the training logs into the
    tensor; the summary mirrors the usual dataset-statistics table, plus the
    logs dropped as flips and the users of the split halves outside U.
    Raises :class:`DataError` when no user enters the tensor."""
    meta_list = list(metas)
    by_id: dict[str, ProgramMeta] = {}
    for m in meta_list:
        if m.program in by_id:
            raise DataError(f"duplicate program id {m.program!r} in metadata")
        by_id[m.program] = m

    kept = filter_flips(logs, dt_min)
    sp = split(kept, meta_list, spec)
    users = users_in_both(sp.d_train, sp.d_test)
    cells = build_tensor(sp.d_train, by_id, grid, items=sp.i_train, users=users)
    if not cells.users:
        raise DataError(
            f"no user has a training log on a train program and a log in both halves "
            f"({len(users)} user(s) in both); there is nothing to model"
        )
    truths = ground_truth_map(sp.d_test, sp.i_test)

    programs = tuple(sorted(sp.i_train | sp.i_test))
    test = [by_id[p] for p in sorted(sp.i_test)]
    channels = tuple(sorted(cells.channels() | {m.channel for m in test}))
    program_of = {p: i for i, p in enumerate(programs)}
    channel_of = {c: i for i, c in enumerate(channels)}
    truth_rows = [sorted(map(program_of.__getitem__, truths.get(u, ()))) for u in cells.users]
    prepared = Prepared(
        cells=replace(
            cells,
            program_names=programs,
            channel_names=channels,
            program=_recode(cells.program_names, program_of, cells.program),
            channel=_recode(cells.channel_names, channel_of, cells.channel),
        ),
        texts=tuple(by_id[p].text for p in programs),
        test_program=np.array([program_of[m.program] for m in test], dtype=np.int32),
        test_channel=np.array([channel_of[m.channel] for m in test], dtype=np.int32),
        test_start=np.array([m.start for m in test], dtype=np.int64),
        test_end=np.array([m.end for m in test], dtype=np.int64),
        truth_ptr=np.cumsum([0, *map(len, truth_rows)], dtype=np.int64),
        truth_program=np.array([c for row in truth_rows for c in row], dtype=np.int32),
    )
    truth_sizes = [len(row) for row in truth_rows if row]
    split_users = np.unique(np.concatenate((sp.d_train.user, sp.d_test.user)))
    summary = {
        "t_split": spec.t_split,
        "d_train": len(sp.d_train),
        "d_test": len(sp.d_test),
        "i_train": len(sp.i_train),
        "i_test": len(sp.i_test),
        "channels": len(cells.channels()),
        "users": len(cells.users),
        "mean_truth_size": (sum(truth_sizes) / len(truth_sizes)) if truth_sizes else 0.0,
        "flips_dropped": len(logs) - len(kept),
        "users_outside_both_halves": len(split_users) - len(users),
    }
    return prepared, summary


# ---------------------------------------------------------------------------
# the prepared file

PREPARED_SCHEMA = 1

# Every array of the file after the manifest, with its dtype; each is one-dimensional.
_PREPARED_ARRAYS = {
    **name_arrays("users"),
    **name_arrays("programs"),
    **name_arrays("texts"),
    **name_arrays("channels"),
    "cell_ptr": np.int64,
    "cell_program": np.int32,
    "cell_slot": np.int64,
    "cell_channel": np.int32,
    "cell_count": np.int64,
    "test_program": np.int32,
    "test_channel": np.int32,
    "test_start": np.int64,
    "test_end": np.int64,
    "truth_ptr": np.int64,
    "truth_program": np.int32,
}
# The arrays stored as they are: TensorCells columns (as ``cell_<column>``) and Prepared fields.
_CELL_COLUMNS = ("ptr", "program", "slot", "channel", "count")
_PREPARED_COLUMNS = ("test_program", "test_channel", "test_start", "test_end", "truth_ptr", "truth_program")


def dump_prepared(fh: BinaryIO, prepared: Prepared, manifest: Mapping[str, object]) -> None:
    """Write ``prepared`` to ``fh`` as the prepared file: an uncompressed
    ``.npz`` of its arrays as they are and of its name tables as UTF-8 bytes
    plus offsets, with ``manifest`` and the schema version stored as JSON in
    the ``manifest`` array. Equal datasets give equal bytes."""
    cells = prepared.cells
    arrays = {
        **encode_names(cells.users, "users"),
        **encode_names(cells.program_names, "programs"),
        **encode_names(prepared.texts, "texts"),
        **encode_names(cells.channel_names, "channels"),
        **{f"cell_{col}": getattr(cells, col) for col in _CELL_COLUMNS},
        **{key: getattr(prepared, key) for key in _PREPARED_COLUMNS},
    }
    write_npz(
        fh,
        {"schema": PREPARED_SCHEMA, **manifest},
        {key: arrays[key].astype(dtype, copy=False) for key, dtype in _PREPARED_ARRAYS.items()},
    )


def load_prepared(path: str | Path, manifest: Mapping[str, object], grid: TimeGrid) -> Prepared:
    """Read a file of :func:`dump_prepared` back as the :class:`Prepared` it
    was written from, without running any code from it.

    Raises :class:`DataError` when the file is not one, has another schema
    version, was written with a manifest other than ``manifest`` (other
    inputs or settings), or fails a check: dtypes and shapes, offsets that
    start at 0, never decrease and end at their table's length, a cell for
    every user, codes in range, slots on ``grid``, positive counts, unique
    user names, sorted unique program and channel names, and test broadcasts
    that start before they end, within a week. A file without users fails
    too.
    """
    stored, arrays = read_npz(path, "prepared file")
    require(
        stored.get("schema") == PREPARED_SCHEMA,
        f"{path} has schema version {stored.get('schema')!r}, expected {PREPARED_SCHEMA}",
    )
    differ = sorted(key for key, value in manifest.items() if stored.get(key) != json.loads(json.dumps(value)))
    require(not differ, f"{path} was prepared with other {', '.join(differ)}")
    check_arrays(path, arrays, _PREPARED_ARRAYS)
    users, programs, texts, channels = (
        decode_names(arrays, key) for key in ("users", "programs", "texts", "channels")
    )
    n_cells, n_test = len(arrays["cell_program"]), len(arrays["test_program"])

    def check(ok: bool, what: str) -> None:
        require(ok, f"{path} is damaged: bad {what}")

    for key, names in zip(("users", "programs", "texts", "channels"), (users, programs, texts, channels)):
        check(names is not None, f"{key} table")

    check(len(users) > 0, "user names: none")
    check(len(set(users)) == len(users), "user names: some repeat")
    check(all(a < b for names in (programs, channels) for a, b in zip(names, names[1:])), "names: not sorted")
    check(len(texts) == len(programs), "texts: not one per program")
    check(is_ptr(arrays["cell_ptr"], len(users), n_cells), "cell offsets")
    check(bool(np.all(arrays["cell_ptr"][1:] > arrays["cell_ptr"][:-1])), "cell offsets: a user without cells")
    check(all(len(arrays[k]) == n_cells for k in ("cell_slot", "cell_channel", "cell_count")), "cell columns")
    check(in_range(arrays["cell_program"], 0, len(programs)), "cell program codes")
    check(in_range(arrays["cell_channel"], 0, len(channels)), "cell channel codes")
    check(in_range(arrays["cell_slot"], 1, grid.n + 1), "cell slots")
    check(in_range(arrays["cell_count"], 1, _INT64_MAX), "cell counts")
    check(all(len(arrays[k]) == n_test for k in ("test_channel", "test_start", "test_end")), "test columns")
    check(in_range(arrays["test_program"], 0, len(programs)), "test program codes")
    check(in_range(arrays["test_channel"], 0, len(channels)), "test channel codes")
    check(in_range(arrays["test_end"] - arrays["test_start"], 1, SECONDS_PER_WEEK), "test broadcasts")
    check(is_ptr(arrays["truth_ptr"], len(users), len(arrays["truth_program"])), "truth offsets")
    check(in_range(arrays["truth_program"], 0, len(programs)), "truth program codes")
    cells = TensorCells(
        users=users,
        program_names=programs,
        channel_names=channels,
        **{col: arrays[f"cell_{col}"] for col in _CELL_COLUMNS},
    )
    return Prepared(cells=cells, texts=texts, **{key: arrays[key] for key in _PREPARED_COLUMNS})
