"""Row-indexed arrays and the codec of the package's ``.npz`` files.

:class:`Rows` is a CSR (compressed sparse row) matrix: row ``i`` holds the
entries ``ptr[i]:ptr[i + 1]`` of ``col`` and ``val``. The behavior
distributions, preference vectors and candidate embeddings that ranking reads
are all :class:`Rows`.

Both files the CLI writes, the prepared dataset (:mod:`tvrec.datamodel`) and
the model bundle (:mod:`tvrec.bundle`), are uncompressed ``.npz`` archives of
one-dimensional arrays with a ``manifest`` array of UTF-8 JSON, read with
``allow_pickle=False``, so loading one runs no code from it. A table of names
is stored as its UTF-8 bytes plus int64 ``<key>_off`` offsets counted in code
points. Equal contents give equal bytes.
"""

from __future__ import annotations

import bisect
import json
import zipfile
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError


class Rows(NamedTuple):
    """A CSR matrix: row ``i``'s columns are ``col[ptr[i]:ptr[i + 1]]`` and
    its values the same slice of ``val``."""

    ptr: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return self.col[lo:hi], self.val[lo:hi]

    def take(self, rows: np.ndarray) -> Rows:
        """The rows ``rows`` names, in its order, each entry in its order."""
        lo, hi = self.ptr[:-1][rows], self.ptr[1:][rows]
        ptr = np.zeros(len(lo) + 1, dtype=np.int64)
        np.cumsum(hi - lo, out=ptr[1:])
        pos = ranges(lo, hi)
        return Rows(ptr, self.col[pos], self.val[pos])

    def ascending(self) -> bool:
        """Whether every row's columns strictly ascend."""
        col = self.col
        row_start = np.zeros(len(col), dtype=bool)
        row_start[self.ptr[:-1][self.ptr[:-1] < len(col)]] = True
        return bool(np.all((col[1:] > col[:-1]) | row_start[1:]))


def ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The int64 positions ``lo[i]``, ..., ``hi[i] - 1`` of every ``i`` in
    turn: the entries of CSR segments, concatenated. Needs ``lo <= hi``."""
    lens = hi - lo
    ends = np.cumsum(lens, dtype=np.int64)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - (ends - lens), lens)


def sorted_index(names: Sequence[str], name: str) -> int | None:
    """The position of ``name`` in the sorted ``names``, or None when absent."""
    i = bisect.bisect_left(names, name)
    return i if i < len(names) and names[i] == name else None


def index_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every index below ``n``."""
    return np.min_scalar_type(max(n - 1, 0))


def encode_names(names: Iterable[str], key: str) -> dict[str, np.ndarray]:
    """The arrays ``key`` and ``<key>_off`` that store a table of names."""
    # Offsets count code points; "surrogatepass" keeps a lone surrogate that a
    # JSON escape put in a text.
    names = list(names)
    blob = "".join(names).encode("utf-8", "surrogatepass")
    off = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(list(map(len, names)), out=off[1:])
    return {key: np.frombuffer(blob, dtype=np.uint8), f"{key}_off": off}


def name_arrays(key: str) -> dict[str, type]:
    """The dtype of each array :func:`encode_names` writes for ``key``."""
    return {key: np.uint8, f"{key}_off": np.int64}


def decode_names(arrays: Mapping[str, np.ndarray], key: str) -> tuple[str, ...] | None:
    """The name table ``key``, or None when its text is not UTF-8 or its
    offsets do not fit its text."""
    try:
        text = arrays[key].tobytes().decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        return None
    off = arrays[f"{key}_off"]
    if not (len(off) > 0 and is_ptr(off, len(off) - 1, len(text))):
        return None
    bounds = off.tolist()
    return tuple(text[lo:hi] for lo, hi in zip(bounds, bounds[1:]))


def is_ptr(ptr: object, rows: int, end: int) -> bool:
    """Whether ``ptr`` is the offsets array of ``rows`` rows over ``end``
    entries: a 1-D integer array of ``rows + 1`` offsets that starts at 0,
    never decreases and ends at ``end``."""
    return (
        isinstance(ptr, np.ndarray)
        and ptr.ndim == 1
        and ptr.dtype.kind in "iu"
        and len(ptr) == rows + 1
        and ptr[0] == 0
        and ptr[-1] == end
        and bool(np.all(ptr[1:] >= ptr[:-1]))
    )


def in_range(codes: np.ndarray, lo: int, hi: int) -> bool:
    """Whether every value of ``codes`` lies in ``[lo, hi)``."""
    return not len(codes) or (int(codes.min()) >= lo and int(codes.max()) < hi)


def require(ok: bool, problem: str) -> None:
    """Raise :class:`DataError` with ``problem`` unless ``ok``."""
    if not ok:
        raise DataError(problem)


def write_npz(fh: BinaryIO, manifest: Mapping[str, object], arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``manifest`` as JSON, then ``arrays``, as an uncompressed ``.npz``."""
    doc = json.dumps(manifest, sort_keys=True).encode()
    np.savez(fh, manifest=np.frombuffer(doc, dtype=np.uint8), **arrays)


def read_npz(path: str | Path, what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and every other array of a file of :func:`write_npz`.

    Raises :class:`DataError` when ``path`` is not such a file: not an
    ``.npz``, an array that needs unpickling, or no JSON object in a uint8
    ``manifest``.
    """
    try:
        loaded = np.load(path, allow_pickle=False)
        require(isinstance(loaded, np.lib.npyio.NpzFile), "not an .npz archive")
        with loaded as npz:
            arrays = {key: npz[key] for key in npz.files}
        raw = arrays.pop("manifest")
        require(raw.dtype == np.uint8 and raw.ndim == 1, "manifest is not UTF-8 bytes")
        manifest = json.loads(raw.tobytes())
    except (
        OSError, ValueError, EOFError, KeyError, RecursionError, MemoryError, zipfile.BadZipFile, DataError
    ) as exc:
        raise DataError(f"{path} is not a readable {what}: {exc}") from None
    require(type(manifest) is dict, f"{path} is not a readable {what}: its manifest is not an object")
    return manifest, arrays


def check_arrays(path: str | Path, arrays: Mapping[str, np.ndarray], dtypes: Mapping[str, object]) -> None:
    """Raise :class:`DataError` unless ``arrays`` are exactly the one-dimensional
    arrays named in ``dtypes``, each of its dtype."""
    require(arrays.keys() == dtypes.keys(), f"{path} holds other arrays")
    for key, dtype in dtypes.items():
        a = arrays[key]
        require(a.dtype == dtype and a.ndim == 1, f"{path}: array {key} is not one-dimensional {np.dtype(dtype)}")
