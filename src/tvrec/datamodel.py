"""Log and program-metadata ingestion, channel-flip filtering, time-based
train/test splitting, interaction-tensor construction, and ground-truth
extraction.

Viewing logs live in one :class:`LogTable` of numpy columns and program
metadata in one :class:`ProgramTable`, not one object per line.
:func:`parse_logs` and :func:`parse_programs` intern names into int32 codes
as they read, through one block reader: the lines at the start of a block
that have the shape ``tvrec synth`` writes (see ``_canonical_block``) are
decoded by numpy passes over their bytes, and the rest of the block line by
line, by the one JSON line decoder. The stages after them work on the
columns: the flip filter and the split are boolean masks over the tables, the
user and item restrictions are lookup arrays indexed by code, and the tensor
is one grouping of equal (user, slot, channel, program) rows with their
counts, kept as the columns of :class:`TensorCells`. No stage holds one
object per program or per log: :mod:`tvrec.synth` generates these tables
too, and :meth:`Prepared.test_programs` hands the ranker the test programs
as a :class:`ProgramTable`.

The tensor keeps one name order, and this module alone decides it: users,
program ids and channels are sorted, so codes compare as their names do, and
the cells come in (user, slot, channel, program) order. The modules that read
the tensor rely on that order instead of sorting again.

A prepared dataset has one type, :class:`Prepared`: the tensor cells over
sorted user, program and channel name tables, every program's text, the test
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
- name tables ``users`` (sorted), ``programs`` (every train and test
  program id, sorted), ``texts`` (one per program) and ``channels``
  (sorted): UTF-8 bytes, with int64 ``<table>_off`` offsets counted in code
  points;
- the tensor cells in (user, slot, channel, program) order,
  ``cell_<column>`` for each column of :class:`TensorCells`: ``cell_ptr``
  (int64 user offsets), ``cell_program`` and ``cell_channel`` (int32 codes),
  ``cell_slot`` and ``cell_count`` (int64);
- the test programs, by id: ``test_program`` and ``test_channel`` (int32
  codes), ``test_start`` and ``test_end`` (int64);
- the truths as CSR over the users: ``truth_ptr`` (int64) and
  ``truth_program`` (int32 codes, ascending in each row).
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .arrays import (
    INTERN_BYTES,
    check_arrays,
    decode_names,
    encode_names,
    in_range,
    intern,
    is_ptr,
    name_arrays,
    read_npz,
    require,
    sort_names,
    write_npz,
)
from .errors import DataError
from .timegrid import SECONDS_PER_WEEK, TimeGrid, slot_column

DEFAULT_MIN_DURATION = 900  # channel-flip threshold, seconds
DEFAULT_TRAIN_SECS = 90 * 86_400
DEFAULT_TEST_SECS = 7 * 86_400

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _is_broadcast(start, end):
    """Whether ``[start, end)`` is a broadcast: it starts before it ends, and
    lasts less than a week. Elementwise over int64 columns."""
    return (start < end) & (end - start < SECONDS_PER_WEEK)


@dataclass(frozen=True, eq=False)
class ProgramTable:
    """Program metadata as columns: row ``i`` is one program, in file order.

    ``program`` and ``channel`` are int32 codes into the name tuples
    ``program_names`` and ``channel_names``, numbered in order of first
    appearance, so an id that repeats keeps its first code; ``start`` and
    ``end`` are the int64 broadcast interval, and ``text`` holds each row's
    free text (title, artists, abstract concatenated).
    """

    program_names: tuple[str, ...]
    channel_names: tuple[str, ...]
    program: np.ndarray
    channel: np.ndarray
    start: np.ndarray
    end: np.ndarray
    text: tuple[str, ...]

    def __post_init__(self) -> None:
        if not len(self.program) == len(self.channel) == len(self.start) == len(self.end) == len(self.text):
            raise ValueError("program columns differ in length")

    def __len__(self) -> int:
        return len(self.start)


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

    def bounds(self) -> tuple[int, int, int]:
        """The train window's start, the split and the test window's end."""
        return self.t_split - self.dt_train, self.t_split, self.t_split + self.dt_test


@dataclass(frozen=True, eq=False)
class Split:
    """The logs of each window, and the item sets as boolean masks over the
    program codes of the table :func:`split` was given: ``i_train[p]`` is
    true when program code ``p`` starts in the train window, ``i_test[p]``
    when it starts in the test window."""

    d_train: LogTable
    d_test: LogTable
    i_train: np.ndarray
    i_test: np.ndarray


@dataclass(frozen=True, eq=False)
class TensorCells:
    """The interaction tensor: positive counts over (user, item, slot, channel)
    cells, as columns. Absent cells are zero.

    User ``users[i]``'s cells are rows ``ptr[i]:ptr[i + 1]``. ``program``
    and ``channel`` are int32 codes into ``program_names`` and
    ``channel_names``, ``slot`` the int64 1-based slot, ``count`` the
    positive int64 count. A name may have no cell.

    The name order is an invariant: ``users``, ``program_names`` and
    ``channel_names`` are sorted, and the cells come in (user, slot, channel,
    program) order, each cell once. :func:`build_tensor` makes them so, and
    the readers of the tensor rely on it instead of sorting again.
    """

    users: tuple[str, ...]
    program_names: tuple[str, ...]
    channel_names: tuple[str, ...]
    ptr: np.ndarray
    program: np.ndarray
    slot: np.ndarray
    channel: np.ndarray
    count: np.ndarray

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


def _decode_lines(lines: Iterable[str], fields: tuple[str, ...], build: Callable[..., None]) -> tuple[int, int]:
    """Call ``build`` with the ``fields`` of each non-blank line, in order;
    return the number of non-blank lines and how many of them are malformed.

    This is the one JSON line decoder. A line is malformed when it holds a
    lone surrogate (a byte that was not UTF-8, see :func:`open_jsonl`), is not
    exactly one JSON object (or nests too deep to decode), lacks a field, or
    makes ``build`` raise ``ValueError``. ``build`` checks the field types:
    the decoder yields exact ``str`` and ``int``, so ``type(v) is int`` is the
    rule that a bool is not an int.
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
    return total, skipped


def _refuse_mostly_malformed(total: int, skipped: int, what: str) -> None:
    if total > 0 and skipped * 2 > total:
        raise DataError(f"{skipped} of {total} {what} lines are malformed; refusing input")


_BLOCK_LINES = 3072

# The JSONL layouts the block path reads: each field's key and kind. A name
# is interned into int32 codes, a text kept as a string, an int held in int64
# and a count is an int without a sign.
_NAME, _TEXT, _INT, _COUNT = "name", "text", "int", "count"
_LOG_FIELDS = (("user", _NAME), ("program", _NAME), ("channel", _NAME), ("t", _INT), ("dt", _COUNT))
_PROGRAM_FIELDS = (("program", _NAME), ("channel", _NAME), ("start", _INT), ("end", _INT), ("text", _TEXT))


@functools.cache
def _canonical_block(fields: tuple[tuple[str, str], ...]) -> re.Pattern[str]:
    """One or more lines of exactly the shape ``tvrec synth`` writes for the
    layout ``fields``, each ending in ``"\\n"`` and joined by ``"\\0"``.

    A line is ``json.dumps`` of the fields in that order, with its default
    separators, and nothing else but the newline: ASCII strings without
    ``"``, ``\\`` or a control character other than DEL (so without
    escapes), names among them of at most ``INTERN_BYTES`` bytes, and JSON
    integers of at most 18 digits (so none overflows int64). Compiled on
    first use, so importing the module costs no memory for it.
    """
    chars = r"[ !#-\[\]-\x7f]"
    digits = "(?:0|[1-9][0-9]{0,17})"
    value = {_NAME: f'"{chars}{{0,{INTERN_BYTES}}}"', _TEXT: f'"{chars}*"', _INT: f"-?{digits}", _COUNT: digits}
    line = "\\{" + ", ".join(f'"{key}": {value[kind]}' for key, kind in fields) + "\\}\n"
    return re.compile(f"{line}(?:\0{line})*")


def _field_spans(fields: tuple[tuple[str, str], ...]) -> tuple[tuple[int, int, int, int], ...]:
    """Where each field's value lies in a line of :func:`_canonical_block`,
    as ``(a, da, b, db)``: from ``da`` bytes after the line's ``a``-th quote
    to ``db`` bytes after its ``b``-th. Its newline counts as the quote after
    the last.

    A string's value lies between its own two quotes, after its key's two. An
    integer starts 3 bytes after its key's closing quote (``": ``) and ends 2
    bytes before the next key's opening quote (``, "``), or 1 byte before the
    newline (``}``).
    """
    spans = []
    q = 0  # the quote that opens the field's key
    for i, (_, kind) in enumerate(fields):
        if kind in (_NAME, _TEXT):
            spans.append((q + 2, 1, q + 3, 0))
            q += 4
        else:
            spans.append((q + 1, 3, q + 2, -2 if i + 1 < len(fields) else -1))
            q += 2
    return tuple(spans)


def _read_canonical_lines(
    block: list[str],
    fields: tuple[tuple[str, str], ...],
    names: Sequence[dict[str, int]],
    cols: Sequence[array | list],
    valid: Callable[..., np.ndarray] | None,
) -> tuple[int, int]:
    """Append to ``cols`` the rows of the longest run of lines at the start
    of ``block`` that have the shape of :func:`_canonical_block`; return how
    many lines that is and how many of them ``valid`` refused.

    Such a line decodes as the line decoder would decode it, so the run is
    read by whole-block numpy passes over its bytes: quote offsets give the
    spans of the values, :func:`tvrec.arrays.intern` numbers the names into
    ``names`` (one index per name field, in order) and the digits become
    int64. ``valid``, given the integer columns in field order, keeps a row
    when it is true; the names of a refused row are not interned.
    """
    pattern = _canonical_block(fields)
    if not pattern.fullmatch(block[0]):
        return 0, 0  # lines of another shape mostly fail here, before the join
    text = "\0".join(block)
    # Every "\0" must join two lines: one inside a line would pass for a joint.
    if text.count("\0") != len(block) - 1:
        return 0, 0
    end = pattern.match(text).end()
    if end < len(text) and text[end] != "\0":
        end = text.rfind("\0", 0, end)  # the last line matched runs on past its newline
    text = text[:end]  # the pattern matches only ASCII
    data = text.encode("ascii") + bytes(INTERN_BYTES)
    raw = np.frombuffer(data, dtype=np.uint8)
    newline = np.flatnonzero(raw == ord("\n"))
    quote = np.flatnonzero(raw == ord('"')).reshape(len(newline), -1)
    bound = [*quote.T, newline]  # each line's k-th quote, then its newline
    spans = [(bound[a] + da, bound[b] + db) for a, da, b, db in _field_spans(fields)]
    ints = {i: _integers(raw, *spans[i]) for i, (_, kind) in enumerate(fields) if kind in (_INT, _COUNT)}
    refused = 0
    if valid is not None:
        keep = valid(*ints.values())
        refused = len(keep) - int(np.count_nonzero(keep))
        if refused:
            spans = [(lo[keep], hi[keep]) for lo, hi in spans]
            ints = {i: column[keep] for i, column in ints.items()}
    index = iter(names)
    for i, (col, (lo, hi), (_, kind)) in enumerate(zip(cols, spans, fields)):
        if kind == _NAME:
            col.frombytes(intern(text, data, lo, hi, next(index)).tobytes())
        elif kind == _TEXT:
            col.extend([text[a:b] for a, b in zip(lo.tolist(), hi.tolist())])
        else:
            col.frombytes(ints[i].tobytes())
    return len(newline), refused


def _integers(raw: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The int64 values of the JSON integers ``raw[start:stop]``, each of at
    most 18 digits after an optional ``-``, so that none overflows."""
    negative = raw[start] == ord("-")
    start = start + negative
    width = stop - start
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(int(width.max())):
        has = width > k
        digit = raw[np.where(has, start + k, start)] - ord("0")
        value = np.where(has, value * 10 + digit, value)
    return np.where(negative, -value, value)


def _read_jsonl(
    lines: Iterable[str],
    fields: tuple[tuple[str, str], ...],
    names: Sequence[dict[str, int]],
    add: Callable[..., None],
    lists: Sequence[list],
    valid: Callable[..., np.ndarray] | None = None,
) -> tuple[list[array | list], int, int]:
    """Read JSONL lines of the layout ``fields`` into columns; return the
    columns, the number of non-blank lines and how many were malformed.

    This is the one block reader of :func:`parse_logs` and
    :func:`parse_programs`. A name field's column holds int32 codes into its
    index in ``names``, an integer's int64 values, a text's strings. Lines
    are read in blocks of ``_BLOCK_LINES``. The lines at the start of a block
    that have the shape of :func:`_canonical_block` are decoded by numpy
    passes over their bytes, with ``valid`` as the rule a row must meet. The
    rest of the block goes to :func:`_decode_lines`, whose ``add`` checks a
    row, including the rule ``valid`` applies, and appends its values (codes
    for names) to ``lists``; they move into the columns after each block.
    Both paths give the same rows, skip count and codes.
    """
    # Typed buffers, not lists of ints, so a row's codes and integers take
    # 4 and 8 bytes each. The line decoder appends to lists, which is faster.
    cols: list[array | list] = [
        array("i") if kind == _NAME else [] if kind == _TEXT else array("q") for _, kind in fields
    ]
    keys = tuple(key for key, _ in fields)
    total = skipped = 0
    rest = iter(lines)
    while block := list(itertools.islice(rest, _BLOCK_LINES)):
        done, refused = _read_canonical_lines(block, fields, names, cols, valid)
        total += done
        skipped += refused
        if done < len(block):
            n, bad = _decode_lines(block[done:], keys, add)
            total += n
            skipped += bad
            for col, rows in zip(cols, lists):
                col.extend(rows)
                rows.clear()
    return cols, total, skipped


def parse_logs(lines: Iterable[str]) -> tuple[LogTable, int]:
    """Parse JSONL viewing logs into a :class:`LogTable`, in file order.

    Malformed lines are skipped and counted; returns ``(table, skipped)``.
    Besides the rules of every JSONL input, a log line is malformed when its
    ``dt`` is negative or when ``t`` or ``dt`` does not fit in int64, since
    neither column could hold it. Raises :class:`DataError` when more than
    half of the lines are malformed. Lines go through the block reader
    :func:`_read_jsonl`; the canonical shape holds no negative ``dt``.
    """
    names: tuple[dict[str, int], ...] = ({}, {}, {})
    users, programs, channels = names
    lists: tuple[list[int], ...] = ([], [], [], [], [])
    add_user, add_program, add_channel, add_t, add_dt = (rows.append for rows in lists)

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

    cols, total, skipped = _read_jsonl(lines, _LOG_FIELDS, names, add, lists)
    _refuse_mostly_malformed(total, skipped, "log")
    table = LogTable(
        *(tuple(index) for index in names),
        *(np.frombuffer(col, dtype=np.int32) for col in cols[:3]),
        *(np.frombuffer(col, dtype=np.int64) for col in cols[3:]),
    )
    return table, skipped


def parse_programs(lines: Iterable[str]) -> tuple[ProgramTable, int]:
    """Parse JSONL program metadata into a :class:`ProgramTable`, in file
    order; same skip-and-count policy as :func:`parse_logs`.

    Besides the rules of every JSONL input, a program line is malformed when
    it is no broadcast (see :func:`_is_broadcast`) or when ``start`` or
    ``end`` does not fit in int64. A program id that repeats keeps its code;
    :func:`prepare` refuses it.
    """
    names: tuple[dict[str, int], ...] = ({}, {})
    programs, channels = names
    lists: tuple[list, ...] = ([], [], [], [], [])
    add_program, add_channel, add_start, add_end, add_text = (rows.append for rows in lists)

    def add(program: str, channel: str, start: int, end: int, text: str) -> None:
        if type(program) is not str or type(channel) is not str or type(text) is not str:
            raise ValueError("a text field is not a string")
        if type(start) is not int or type(end) is not int:
            raise ValueError("start or end is not an integer")
        if not (_INT64_MIN <= start <= _INT64_MAX and _INT64_MIN <= end <= _INT64_MAX):
            raise ValueError("start or end does not fit in int64")
        if not _is_broadcast(start, end):
            raise ValueError(f"program {program!r}: not a broadcast of less than a week")
        add_program(programs.setdefault(program, len(programs)))
        add_channel(channels.setdefault(channel, len(channels)))
        add_start(start)
        add_end(end)
        add_text(text)

    cols, total, skipped = _read_jsonl(lines, _PROGRAM_FIELDS, names, add, lists, valid=_is_broadcast)
    _refuse_mostly_malformed(total, skipped, "program")
    table = ProgramTable(
        *(tuple(index) for index in names),
        *(np.frombuffer(col, dtype=np.int32) for col in cols[:2]),
        *(np.frombuffer(col, dtype=np.int64) for col in cols[2:4]),
        tuple(cols[4]),
    )
    return table, skipped


def filter_flips(logs: LogTable, dt_min: int = DEFAULT_MIN_DURATION) -> LogTable:
    """Drop channel-flip events: keep exactly the logs with ``dt >= dt_min``."""
    if dt_min < 0:
        raise ValueError("dt_min must be non-negative")
    return logs.take(logs.dt >= dt_min)


def split(logs: LogTable, programs: ProgramTable, spec: SplitSpec) -> Split:
    """Split logs and programs by time around ``spec.t_split``.

    A program belongs to the train (test) item set when its broadcast *start*
    falls inside the train (test) window; the windows are disjoint, so the two
    item sets are disjoint by construction. The item sets are masks over
    ``programs``' codes; the two log tables keep ``logs``' name tables.
    """
    lo, mid, hi = spec.bounds()
    t = logs.t
    d_train = logs.take((lo <= t) & (t < mid))
    d_test = logs.take((mid <= t) & (t < hi))
    if not len(d_train):
        raise DataError(f"no logs in train window [{lo}, {mid}); split is outside the data range")
    if not len(d_test):
        raise DataError(f"no logs in test window [{mid}, {hi}); split is outside the data range")
    start = programs.start
    n = len(programs.program_names)
    i_train = _mask(programs.program[(lo <= start) & (start < mid)], n)
    i_test = _mask(programs.program[(mid <= start) & (start < hi)], n)
    return Split(d_train, d_test, i_train, i_test)


def _mask(codes: np.ndarray, n: int) -> np.ndarray:
    """A lookup array over the codes ``0..n - 1``: whether each is among ``codes``."""
    mask = np.zeros(n, dtype=bool)
    mask[codes] = True
    return mask


def _names_of(names: tuple[str, ...], codes: np.ndarray) -> frozenset[str]:
    return frozenset(map(names.__getitem__, np.unique(codes).tolist()))


def users_in_both(d_train: LogTable, d_test: LogTable) -> np.ndarray:
    """The users appearing at least once in both split halves (the user set
    U), as a mask over their codes. The halves share one user name table, as
    the two of :func:`split` do."""
    n = len(d_train.user_names)
    return _mask(d_train.user, n) & _mask(d_test.user, n)


def _lookup(names: tuple[str, ...], code_of: Mapping[str, int]) -> np.ndarray:
    """A lookup array indexed by code: each name's code in the table that
    ``code_of`` numbers, or -1 where it has none."""
    return np.fromiter(map(code_of.get, names, itertools.repeat(-1)), dtype=np.int32, count=len(names))


def build_tensor(
    d_train: LogTable,
    programs: ProgramTable,
    grid: TimeGrid,
    *,
    items: np.ndarray,
    users: np.ndarray,
) -> TensorCells:
    """Count interactions per (user, item, slot, channel) cell, as columns,
    in the name order of :class:`TensorCells`.

    ``programs.program_names`` must be sorted, as :func:`prepare` passes
    them: the cells' program codes index them, so they order the programs
    without another sort. Users and channels are ``d_train``'s names,
    sorted. Every log's program must appear in ``programs``. Only logs of a
    user in ``users`` (the set U, a mask over ``d_train``'s user codes)
    watching a program in ``items`` (the train item set, a mask over
    ``programs``' codes) are counted; the others stay in the data but do not
    enter the tensor. Users left without any counted cell are dropped so
    that every stored user has a positive total.
    """
    ids = programs.program_names
    program_code = _lookup(d_train.program_names, dict(zip(ids, itertools.count())))
    missing = np.unique(d_train.program[program_code[d_train.program] < 0])
    unknown = sorted(map(d_train.program_names.__getitem__, missing.tolist()))
    if unknown:
        shown = ", ".join(unknown[:10])
        more = f" (+{len(unknown) - 10} more)" if len(unknown) > 10 else ""
        raise DataError(f"logs reference {len(unknown)} unknown program(s): {shown}{more}")

    user_names, user_rank = sort_names(d_train.user_names)
    channel_names, channel_rank = sort_names(d_train.channel_names)
    counted = d_train.take(users[d_train.user] & items[program_code[d_train.program]])
    slot = slot_column(counted.t, grid)
    cols = (user_rank[counted.user], slot, channel_rank[counted.channel], program_code[counted.program])
    # One sort groups equal cells in the tensor's order; a packed int64 key could overflow.
    order = np.lexsort(cols[::-1])
    ordered = [c[order] for c in cols]
    new_cell = np.ones(len(order), dtype=bool)
    new_cell[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in ordered])
    starts = np.flatnonzero(new_cell)
    user, slot, channel, program = (c[starts] for c in ordered)
    user_starts = np.flatnonzero(np.diff(user, prepend=-1))
    return TensorCells(
        users=tuple(map(user_names.__getitem__, user[user_starts].tolist())),
        program_names=ids,
        channel_names=channel_names,
        ptr=np.append(user_starts, len(user)).astype(np.int64),
        program=program,
        slot=slot,
        channel=channel,
        count=np.diff(starts, append=len(order)).astype(np.int64),
    )


def _truths(
    d_test: LogTable, users: tuple[str, ...], program_names: tuple[str, ...], test: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The truths of :class:`Prepared`: ``(truth_ptr, truth_program)`` over
    ``users``, sorted, and the codes of ``program_names``, the test programs
    being the codes ``test``: the test programs each user watched in
    ``d_test``, read off its codes. Only the programs it names are looked
    up, among the test programs alone."""
    test_code_of = dict(zip(map(program_names.__getitem__, test.tolist()), test.tolist()))
    named = np.flatnonzero(np.bincount(d_test.program, minlength=len(d_test.program_names)))
    code = np.full(len(d_test.program_names), -1, dtype=np.int64)
    code[named] = _lookup(tuple(map(d_test.program_names.__getitem__, named.tolist())), test_code_of)
    row = _lookup(d_test.user_names, dict(zip(users, itertools.count())))
    program, user = code[d_test.program], row[d_test.user].astype(np.int64)
    watched = (program >= 0) & (user >= 0)
    pairs = np.unique(user[watched] * len(program_names) + program[watched])
    ptr = np.searchsorted(pairs // len(program_names), np.arange(len(users) + 1)).astype(np.int64)
    return ptr, (pairs % len(program_names)).astype(np.int32)


@dataclass(frozen=True, eq=False)
class Prepared:
    """A prepared dataset: the tensor, every program's text, the test
    programs' schedule and the truths, all over one set of name tables.

    ``cells`` keep the name order of :class:`TensorCells`.
    ``cells.program_names`` are the train and test program ids, sorted, and
    ``texts`` their texts; ``cells.channel_names`` are the channels of the
    cells and of the test programs, sorted. The test programs, by id, are the
    program codes ``test_program``, with ``test_channel`` codes and their
    ``test_start`` and ``test_end``. User ``cells.users[i]``'s truths are the
    program codes ``truth_program[truth_ptr[i]:truth_ptr[i + 1]]``, ascending,
    so the truths too come by user name, then id.
    """

    cells: TensorCells
    texts: tuple[str, ...]
    test_program: np.ndarray
    test_channel: np.ndarray
    test_start: np.ndarray
    test_end: np.ndarray
    truth_ptr: np.ndarray
    truth_program: np.ndarray

    def test_programs(self) -> ProgramTable:
        """The test programs over the name tables, in candidate order: by
        (start, id), the order of :class:`tvrec.ranker.Candidates` rows.
        Program codes ascend with the ids, so they break the start ties."""
        order = np.lexsort((self.test_program, self.test_start))
        program = self.test_program[order]
        return ProgramTable(
            program_names=self.cells.program_names,
            channel_names=self.cells.channel_names,
            program=program,
            channel=self.test_channel[order],
            start=self.test_start[order],
            end=self.test_end[order],
            text=tuple(map(self.texts.__getitem__, program.tolist())),
        )

    def truths(self) -> dict[str, tuple[str, ...]]:
        """Each user with a truth, in sorted order, to their sorted test programs."""
        items = list(map(self.cells.program_names.__getitem__, self.truth_program.tolist()))
        ptr = self.truth_ptr.tolist()
        return {u: tuple(items[lo:hi]) for u, lo, hi in zip(self.cells.users, ptr, ptr[1:]) if hi > lo}


def prepare(
    logs: LogTable,
    programs: ProgramTable,
    grid: TimeGrid,
    spec: SplitSpec,
    dt_min: int = DEFAULT_MIN_DURATION,
) -> tuple[Prepared, dict]:
    """Run flip filtering, splitting, U restriction, tensor construction, and
    ground-truth extraction in one pass; returns the :class:`Prepared`
    dataset and its summary. ``grid`` slots the training logs into the
    tensor; the summary mirrors the usual dataset-statistics table, plus the
    logs dropped as flips and the users of the split halves outside U.
    Raises :class:`DataError` when a program id repeats or no user enters
    the tensor."""
    if len(programs.program_names) < len(programs):
        is_first = np.zeros(len(programs), dtype=bool)
        is_first[np.unique(programs.program, return_index=True)[1]] = True
        repeat = programs.program_names[programs.program[np.argmin(is_first)]]
        raise DataError(f"duplicate program id {repeat!r} in metadata")

    # The one sort of the program ids: renumbered by it, codes compare as ids do.
    ids, rank = sort_names(programs.program_names)
    by_id = replace(programs, program_names=ids, program=rank[programs.program])
    kept = filter_flips(logs, dt_min)
    sp = split(kept, by_id, spec)
    users = users_in_both(sp.d_train, sp.d_test)
    n_users = int(np.count_nonzero(users))
    cells = build_tensor(sp.d_train, by_id, grid, items=sp.i_train, users=users)
    if not cells.users:
        raise DataError(
            f"no user has a training log on a train program and a log in both halves "
            f"({n_users} user(s) in both); there is nothing to model"
        )

    # The rows that start in either window, in id order: recoded cells keep their order.
    lo, mid, hi = spec.bounds()
    rows = np.flatnonzero((lo <= programs.start) & (programs.start < hi))
    rows = rows[np.argsort(by_id.program[rows])]
    codes = by_id.program[rows]
    program_code = np.full(len(ids), -1, dtype=np.int32)
    program_code[codes] = np.arange(len(codes), dtype=np.int32)
    test = np.flatnonzero(programs.start[rows] >= mid)  # codes into the id-ordered programs
    test_rows = rows[test]
    program_names = tuple(map(ids.__getitem__, codes.tolist()))
    channels = tuple(sorted(cells.channels() | _names_of(programs.channel_names, programs.channel[test_rows])))
    channel_of = {c: i for i, c in enumerate(channels)}
    truth_ptr, truth_program = _truths(sp.d_test, cells.users, program_names, test)
    prepared = Prepared(
        cells=replace(
            cells,
            program_names=program_names,
            channel_names=channels,
            program=program_code[cells.program],
            channel=_lookup(cells.channel_names, channel_of)[cells.channel],
        ),
        texts=tuple(map(programs.text.__getitem__, rows.tolist())),
        test_program=test.astype(np.int32),
        test_channel=_lookup(programs.channel_names, channel_of)[programs.channel[test_rows]],
        test_start=programs.start[test_rows],
        test_end=programs.end[test_rows],
        truth_ptr=truth_ptr,
        truth_program=truth_program,
    )
    truth_sizes = [size for size in np.diff(truth_ptr).tolist() if size]
    split_users = np.unique(np.concatenate((sp.d_train.user, sp.d_test.user)))
    summary = {
        "t_split": spec.t_split,
        "d_train": len(sp.d_train),
        "d_test": len(sp.d_test),
        "i_train": int(np.count_nonzero(sp.i_train)),
        "i_test": int(np.count_nonzero(sp.i_test)),
        "channels": len(cells.channels()),
        "users": len(cells.users),
        "mean_truth_size": (sum(truth_sizes) / len(truth_sizes)) if truth_sizes else 0.0,
        "flips_dropped": len(logs) - len(kept),
        "users_outside_both_halves": len(split_users) - n_users,
    }
    return prepared, summary


# ---------------------------------------------------------------------------
# the prepared file

PREPARED_SCHEMA = 2

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
    every user, codes in range, slots on ``grid``, positive counts that sum
    to less than 2**63, the name order of :class:`TensorCells` (sorted
    unique user, program and channel names, and the cells in (user, slot,
    channel, program) order, each once), and test broadcasts that start
    before they end, within a week. A file without users fails too.
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
    check(all(a < b for names in (users, programs, channels) for a, b in zip(names, names[1:])), "names: not sorted")
    check(len(texts) == len(programs), "texts: not one per program")
    check(is_ptr(arrays["cell_ptr"], len(users), n_cells), "cell offsets")
    check(bool(np.all(arrays["cell_ptr"][1:] > arrays["cell_ptr"][:-1])), "cell offsets: a user without cells")
    check(all(len(arrays[k]) == n_cells for k in ("cell_slot", "cell_channel", "cell_count")), "cell columns")
    check(in_range(arrays["cell_program"], 0, len(programs)), "cell program codes")
    check(in_range(arrays["cell_channel"], 0, len(channels)), "cell channel codes")
    check(in_range(arrays["cell_slot"], 1, grid.n + 1), "cell slots")
    check(in_range(arrays["cell_count"], 1, 2**63) and sum(arrays["cell_count"].tolist()) < 2**63, "cell counts")
    # Each user's cells ascend by (slot, channel, program).
    ds, dc, dp = (np.diff(arrays[f"cell_{col}"]) for col in ("slot", "channel", "program"))
    later = (ds > 0) | ((ds == 0) & ((dc > 0) | ((dc == 0) & (dp > 0))))
    later[arrays["cell_ptr"][1:-1] - 1] = True
    check(bool(np.all(later)), "cells: not in (user, slot, channel, program) order")
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
