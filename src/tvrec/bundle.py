"""The model bundle that `build` writes and `recommend`, `bench`, `tune` and
`inspect-user` read: :func:`build` makes it from a prepared dataset, :func:`dump`
writes it and :func:`load` reads it back.

A bundle holds row-indexed arrays over the candidates, with nothing pickled in
it: an uncompressed ``.npz`` in the format of :mod:`tvrec.arrays`, loaded with
``allow_pickle=False``, so loading it runs no code from it. Every array is
checked (dtype, length, offsets that start at 0, never decrease and end at
their table's length, codes in range, finite values); any failure, a pickled
bundle of an earlier version or another schema version included, is a
:class:`DataError`. The file holds:

- ``manifest``: JSON with the schema version, the provenance and the
  ``shapes``: ``users``, ``candidates``, ``slots``, ``channels`` and ``dims``
  (the vocabulary size);
- name tables ``users`` (sorted), ``ids`` (the candidates in row order) and
  ``channels`` (sorted, one grid column each). ``users`` names the user rows
  of every per-user block: :class:`tvrec.behavior.Behavior` holds it, and the
  preference vectors, the rankers and the truths take rows;
- the candidates' spans: ``span_ptr`` and ``span_flat``, as in
  :class:`tvrec.ranker.Candidates`, no span listing a cell twice;
- four CSR blocks, each ``<block>_ptr`` (int64), ``<block>_col`` and
  ``<block>_val`` (float64): ``behavior`` (one row per user over the flat grid
  cells ``(slot - 1) * channels + channel``, strictly ascending), ``global``
  (one preference vector per user), ``slot_vecs`` (one preference vector per
  (user, slot), user ``i``'s being rows ``slots_ptr[i]:slots_ptr[i + 1]``,
  for the slots in the same slice of ``slots``) and ``embeddings`` (one per
  candidate row); the columns of the last three are dimension codes, in the
  order the means and encodings made them;
- the truths: user ``i``'s test programs are the candidate rows
  ``truth_rows[truth_ptr[i]:truth_ptr[i + 1]]``, ascending.

Codes (cells, dimensions, slots, rows) are stored in the narrowest unsigned
dtype that holds their table's size; weights stay float64, so scores are
those of the vectors as built. Every stored weight is finite and > 0 (tf-idf
rows and means of them are positive, behavior probabilities lie in (0, 1]),
so no preference score is NaN: the preference order relies on that.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Mapping

import numpy as np

from . import behavior as behavior_mod
from . import preference as preference_mod
from . import ranker as ranker_mod
from . import textenc as textenc_mod
from .arrays import (
    Rows,
    check_arrays,
    decode_names,
    encode_names,
    in_range,
    index_dtype,
    is_ptr,
    name_arrays,
    read_npz,
    require,
    write_npz,
)
from .datamodel import Prepared
from .errors import DataError
from .timegrid import TimeGrid

BUNDLE_SCHEMA = 1
_SHAPES = ("users", "candidates", "slots", "channels", "dims")
# The CSR blocks of the bundle: the arrays <block>_ptr, <block>_col and <block>_val.
_BLOCKS = ("behavior", "global", "slot_vecs", "embeddings")


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """What a bundle file holds.

    ``cand`` indexes next week's candidate programs; ``behavior`` holds each
    training user's (slot, channel) distribution over ``cand``'s grid and
    the one table of their names, ``behavior.users``; ``prefs`` the same
    user rows' time-aware preference vectors over ``dims`` dimensions, and
    ``embeddings`` one row per candidate row. User row ``i``'s test programs
    are the candidate rows ``truth_rows[truth_ptr[i]:truth_ptr[i + 1]]``.
    """

    provenance: dict
    cand: ranker_mod.Candidates
    behavior: behavior_mod.Behavior
    prefs: preference_mod.Preferences
    embeddings: Rows
    dims: int
    truth_ptr: np.ndarray
    truth_rows: np.ndarray

    @functools.cached_property
    def model(self) -> preference_mod.PreferenceModel:
        """The time-aware preference model, its item index padded on first use;
        global scoring reads it through :func:`tvrec.preference.global_view`."""
        items = ranker_mod.build_item_index(self.embeddings, self.cand)
        return preference_mod.PreferenceModel(self.prefs, self.dims, items)


def build(prepared: Prepared, grid: TimeGrid, provenance: dict) -> tuple[ModelBundle, textenc_mod.Vocabulary]:
    """The bundle of ``prepared`` on ``grid``, and the vocabulary of its
    embeddings. ``prepared`` is let go once the encoder has read its texts, so
    a caller that passes it inline frees it before the embeddings are made."""
    cells = prepared.cells
    # Every channel of the prepared file gets its grid column, so a cell of
    # the tensor is a cell of the candidates' grid, channel code for column.
    test = prepared.test_programs()
    cand = ranker_mod.build_candidates(test, grid, cells.channel_names)
    cand_codes = test.program
    del test
    truth_ptr, truth_rows = _truth_rows(prepared, cand_codes)

    # The encoder is fitted on train + test metadata: program text is known
    # before broadcast, so this leaks no interaction labels.
    vocab, counts = textenc_mod.fit(prepared.texts)
    del prepared
    embeddings = textenc_mod.encode(vocab, counts)
    del counts
    prefs = preference_mod.build(cells, embeddings)
    behavior = behavior_mod.behavior_matrix(cells)
    # Ranking reads candidate embeddings only, one row per candidate row.
    items = embeddings.take(cand_codes)
    return ModelBundle(provenance, cand, behavior, prefs, items, vocab.size, truth_ptr, truth_rows), vocab


def _truth_rows(prepared: Prepared, cand_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each user's truths as ascending candidate rows, users in name order,
    as ``prepared`` holds them: ``(ptr, rows)``. ``cand_codes`` are the
    candidates' program codes, in row order."""
    names, ptr = prepared.cells.program_names, prepared.truth_ptr
    cand_row = np.full(len(names), -1, dtype=np.int64)
    cand_row[cand_codes] = np.arange(len(cand_codes))
    rows = cand_row[prepared.truth_program]
    if len(rows) and rows.min() < 0:
        raise DataError(f"truth {names[prepared.truth_program[rows.argmin()]]!r} is not a candidate")
    user = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    return ptr, rows[np.lexsort((rows, user))]


def _bundle_dtypes(shapes: Mapping[str, int]) -> dict[str, object]:
    """Every array of a bundle after the manifest, with its dtype. Codes are
    stored in the narrowest unsigned dtype that holds them; pointers are
    int64 and values float64."""
    cell = index_dtype(shapes["slots"] * max(shapes["channels"], 1))
    dim = index_dtype(shapes["dims"])
    cols = {"behavior": cell, "global": dim, "slot_vecs": dim, "embeddings": dim}
    return {
        **name_arrays("users"),
        **name_arrays("ids"),
        **name_arrays("channels"),
        "span_ptr": np.int64,
        "span_flat": cell,
        **{f"{block}_{part}": dtype for block in _BLOCKS
           for part, dtype in (("ptr", np.int64), ("col", cols[block]), ("val", np.float64))},
        "slots_ptr": np.int64,
        "slots": index_dtype(shapes["slots"] + 1),
        "truth_ptr": np.int64,
        "truth_rows": index_dtype(shapes["candidates"]),
    }


def dump(fh: BinaryIO, bundle: ModelBundle) -> None:
    """Write ``bundle``: an uncompressed ``.npz`` in the format of the module
    docstring. Equal bundles give equal bytes."""
    cand, behavior, prefs = bundle.cand, bundle.behavior, bundle.prefs
    shapes = dict(zip(_SHAPES, (len(behavior.users), len(cand), cand.n_slots, len(cand.channels), bundle.dims)))
    blocks = dict(zip(_BLOCKS, (behavior.rows, prefs.global_vecs, prefs.slot_vecs, bundle.embeddings)))
    arrays = {
        **encode_names(behavior.users, "users"),
        **encode_names(cand.ids, "ids"),
        **encode_names(cand.channels, "channels"),
        "span_ptr": cand.span_ptr,
        "span_flat": cand.span_flat,
        **{f"{block}_{part}": a for block, rows in blocks.items() for part, a in zip(("ptr", "col", "val"), rows)},
        "slots_ptr": prefs.slot_ptr,
        "slots": prefs.slots,
        "truth_ptr": bundle.truth_ptr,
        "truth_rows": bundle.truth_rows,
    }
    manifest = {"schema": BUNDLE_SCHEMA, "provenance": bundle.provenance, "shapes": shapes}
    dtypes = _bundle_dtypes(shapes)
    write_npz(fh, manifest, {key: arrays[key].astype(dtype, copy=False) for key, dtype in dtypes.items()})


def load(path: str | Path) -> ModelBundle:
    """The bundle in ``path``, checked array by array; raises :class:`DataError`
    for a file that is not one of this schema or fails a check."""
    manifest, arrays = read_npz(path, "model bundle")
    schema = manifest.get("schema")
    require(schema == BUNDLE_SCHEMA, f"{path} has bundle schema {schema!r}, expected {BUNDLE_SCHEMA}")
    shapes = manifest.get("shapes")
    require(
        type(shapes) is dict and shapes.keys() == set(_SHAPES)
        and all(type(v) is int and v >= 0 for v in shapes.values()) and type(manifest.get("provenance")) is dict,
        f"{path} has a damaged manifest",
    )
    check_arrays(path, arrays, _bundle_dtypes(shapes))
    users, ids, channels = (decode_names(arrays, key) for key in ("users", "ids", "channels"))

    def check(ok: bool, what: str) -> None:
        require(ok, f"{path} is damaged: bad {what}")

    check(users is not None and ids is not None and channels is not None, "name table")
    require(len(users) > 0, f"{path} holds no users")
    n_slots, dims = shapes["slots"], shapes["dims"]
    n_cells = n_slots * max(len(channels), 1)
    check(
        (len(users), len(ids), len(channels)) == (shapes["users"], shapes["candidates"], shapes["channels"])
        and n_slots > 0 and dims > 0,
        "shapes",
    )
    check(all(a < b for a, b in zip(users, users[1:])), "user names: not sorted")
    check(len(set(ids)) == len(ids), "candidate ids: some repeat")
    span_ptr = arrays["span_ptr"]
    check(is_ptr(span_ptr, len(ids), len(arrays["span_flat"])) and bool(np.all(span_ptr[1:] > span_ptr[:-1])),
          "span offsets")
    check(in_range(arrays["span_flat"], 0, n_cells), "span cells")
    blocks = {block: Rows(*(arrays[f"{block}_{part}"] for part in ("ptr", "col", "val"))) for block in _BLOCKS}
    for block, rows, n_cols in (
        ("behavior", len(users), n_cells),
        ("global", len(users), dims),
        ("slot_vecs", len(arrays["slots"]), dims),
        ("embeddings", len(ids), dims),
    ):
        ptr, col, val = blocks[block]
        check(is_ptr(ptr, rows, len(col)) and len(val) == len(col), f"{block} offsets")
        check(in_range(col, 0, n_cols), f"{block} columns")
        check(bool(np.all(np.isfinite(val))), f"{block} values")
    probs = blocks["behavior"].val
    check(bool(np.all((probs > 0) & (probs <= 1))), "behavior probabilities")
    # One probability per cell: a repeated cell would have two.
    check(blocks["behavior"].ascending(), "behavior cells: a row does not strictly ascend")
    for block in ("global", "slot_vecs", "embeddings"):
        check(bool(np.all(blocks[block].val > 0)), f"{block} weights: not all > 0")
    check(is_ptr(arrays["slots_ptr"], len(users), len(arrays["slots"])), "slot offsets")
    check(in_range(arrays["slots"], 1, n_slots + 1), "slots")
    check(is_ptr(arrays["truth_ptr"], len(users), len(arrays["truth_rows"])), "truth offsets")
    check(in_range(arrays["truth_rows"], 0, len(ids)), "truth rows")

    cand = ranker_mod.Candidates(
        n_slots=n_slots,
        ids=ids,
        channels=channels,
        span_flat=arrays["span_flat"].astype(np.int64),
        span_ptr=span_ptr,
    )
    check(not cand.repeats_a_cell(), "span cells: a span lists one cell twice")
    return ModelBundle(
        provenance=manifest["provenance"],
        cand=cand,
        behavior=behavior_mod.Behavior(users=users, channels=channels, rows=blocks["behavior"]),
        prefs=preference_mod.Preferences(blocks["global"], arrays["slots_ptr"], arrays["slots"], blocks["slot_vecs"]),
        embeddings=blocks["embeddings"],
        dims=dims,
        truth_ptr=arrays["truth_ptr"],
        truth_rows=arrays["truth_rows"],
    )
