import dataclasses
import json
import random
import re
from dataclasses import replace

import pytest

import numpy as np

from oracles import (
    ProgramMeta,
    ViewingLog,
    build_tensor_records,
    ground_truth_map,
    ground_truth_records,
    log_table,
    masks,
    parse_log_records,
    parse_program_records,
    program_records,
    program_table,
    slot_of,
    table_rows,
    tensor_dicts,
)
from tvrec.datamodel import (
    Prepared,
    SplitSpec,
    build_tensor,
    dump_prepared,
    filter_flips,
    load_prepared,
    open_jsonl,
    parse_logs,
    parse_programs,
    prepare,
    split,
    users_in_both,
)
from tvrec import cli, datamodel, synth
from tvrec.errors import DataError
from tvrec.timegrid import SECONDS_PER_WEEK, TimeGrid

MONDAY = 1_554_076_800
GRID = TimeGrid(n=672)
P1_U1 = {"items": frozenset({"p1"}), "users": frozenset({"u1"})}  # the defaults of log() and meta()


def build_named(d_train, programs, grid, *, items, users):
    """``build_tensor`` restricted to the item names ``items`` and the user names ``users``."""
    return build_tensor(d_train, programs, grid, **masks(d_train, programs, items=items, users=users))


def named(names, mask):
    """The names whose codes ``mask`` holds."""
    return frozenset(name for name, kept in zip(names, mask.tolist()) if kept)


def log(user="u1", program="p1", channel="c1", t=MONDAY, dt=1200):
    return ViewingLog(user=user, program=program, channel=channel, t=t, dt=dt)


def meta(program="p1", channel="c1", start=MONDAY, dur=1800, text=""):
    return ProgramMeta(program=program, channel=channel, start=start, end=start + dur, text=text)


# parsing


def test_parse_logs_direct_field_mapping():
    line = '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":1200}'
    logs, skipped = parse_logs([line])
    assert table_rows(logs) == [("u1", "p9", "c3", 1554076800, 1200)]
    assert skipped == 0


def test_parse_logs_empty_input():
    logs, skipped = parse_logs([])
    assert len(logs) == 0 and skipped == 0


def test_parse_logs_missing_field_skipped_and_counted():
    lines = [
        '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":1200}',
        '{"user":"u2","program":"p9","channel":"c3","t":1554076800}',
    ]
    logs, skipped = parse_logs(lines)
    assert len(logs) == 1
    assert skipped == 1


def test_parse_logs_wrong_types_and_negative_duration_skipped():
    lines = [
        '{"user":"u1","program":"p9","channel":"c3","t":"noon","dt":1200}',
        '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":-5}',
        "not json at all",
        '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":1200}',
        '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":900}',
        '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":901}',
        '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":902}',
    ]
    logs, skipped = parse_logs(lines)
    assert len(logs) == 4
    assert skipped == 3


def test_parse_logs_mostly_malformed_is_an_error():
    lines = ["{}", "{}", "{}", '{"user":"u","program":"p","channel":"c","t":0,"dt":1}']
    with pytest.raises(DataError):
        parse_logs(lines)


def test_parse_programs_round_trip():
    m = meta(text="evening news")
    line = json.dumps(
        {"program": m.program, "channel": m.channel, "start": m.start, "end": m.end, "text": m.text}
    )
    programs, skipped = parse_programs([line])
    assert program_records(programs) == [m] and skipped == 0


def test_parse_programs_invalid_interval_skipped():
    line = json.dumps({"program": "p", "channel": "c", "start": 10, "end": 10, "text": ""})
    metas, skipped = parse_programs([line, line, json.dumps(
        {"program": "p", "channel": "c", "start": 10, "end": 20, "text": ""}
    ), json.dumps({"program": "q", "channel": "c", "start": 10, "end": 20, "text": ""}),
        json.dumps({"program": "r", "channel": "c", "start": 10, "end": 20, "text": ""})])
    assert len(metas) == 3
    assert skipped == 2


VALID_LOG = '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":1200}'


def _read(tmp_path, lines: list[bytes], parse=parse_logs):
    """Parse byte lines the way the CLI reads a file."""
    path = tmp_path / "input.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with open_jsonl(path) as fh:
        return parse(fh)


def test_parse_logs_skips_and_counts_non_utf8_lines(tmp_path):
    bad = [b'{"user":"\xff","program":"p9","channel":"c3","t":1,"dt":1}', b"\xed\xa0\x80", b"\xe2\x82"]
    logs, skipped = _read(tmp_path, [VALID_LOG.encode()] * 3 + bad + [VALID_LOG.encode()])
    assert len(logs) == 4 and skipped == 3


def test_non_utf8_lines_count_toward_the_refusal(tmp_path):
    with pytest.raises(DataError, match="2 of 3 log lines"):
        _read(tmp_path, [b"\xff", VALID_LOG.encode(), b"{\"user\": \"\xc3\"}"])


def test_parse_programs_skips_and_counts_non_utf8_lines(tmp_path):
    good = json.dumps({"program": "p", "channel": "c", "start": 10, "end": 20, "text": "caf\u00e9"}).encode()
    metas, skipped = _read(tmp_path, [good, good.replace(b"p", b"\xfe", 1), good], parse_programs)
    assert len(metas) == 2 and skipped == 1
    assert metas.text[0] == "caf\u00e9"


def test_parse_logs_skips_t_and_dt_outside_int64():
    def line(t, dt):
        return json.dumps({"user": "u", "program": "p", "channel": "c", "t": t, "dt": dt})

    kept = [(2**63 - 1, 0), (-(2**63), 5), (0, 2**63 - 1)]
    outside = [(2**63, 0), (-(2**63) - 1, 0), (0, 2**63)]
    logs, skipped = parse_logs([line(t, dt) for t, dt in kept + outside])
    assert [(t, dt) for *_, t, dt in table_rows(logs)] == kept
    assert skipped == 3


def test_parse_logs_skips_a_line_nested_too_deep_to_decode():
    logs, skipped = parse_logs([VALID_LOG, "[" * 100_000, VALID_LOG])
    assert len(logs) == 2 and skipped == 1


def test_parse_logs_decodes_each_line_on_its_own():
    # Joined with commas inside [...] these three lines would decode as three rows.
    fields = '"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":1200'
    trap = ["{" + fields + ',"z":"', '"}', "{" + fields + "},{" + fields + "}"]
    logs, skipped = parse_logs(trap + [VALID_LOG] * 4)
    assert len(logs) == 4 and skipped == 3


# flip filtering


def test_filter_flips_boundary_inclusive():
    kept = filter_flips(log_table([log(dt=900)]), dt_min=900)
    assert len(kept) == 1


def test_filter_flips_below_threshold_dropped():
    assert len(filter_flips(log_table([log(dt=899)]), dt_min=900)) == 0


def test_filter_flips_zero_threshold_is_identity():
    logs = log_table([log(dt=0), log(dt=5), log(dt=10_000)])
    assert table_rows(filter_flips(logs, dt_min=0)) == table_rows(logs)


def test_filter_flips_idempotent():
    rng = random.Random(3)
    logs = log_table([log(dt=rng.randrange(0, 3000)) for _ in range(200)])
    once = filter_flips(logs)
    assert table_rows(filter_flips(once)) == table_rows(once)


# splitting


def test_split_program_starting_exactly_at_t_split_is_test():
    t = MONDAY + 14 * 86_400
    metas = [meta(program="pA", start=t), meta(program="pB", start=t - 1, dur=1800)]
    logs = [log(program="pA", t=t), log(program="pB", t=t - 1)]
    programs = program_table(metas)
    sp = split(log_table(logs), programs, SplitSpec(t_split=t, dt_train=7 * 86_400, dt_test=7 * 86_400))
    i_train, i_test = (named(programs.program_names, mask) for mask in (sp.i_train, sp.i_test))
    assert "pA" in i_test and "pA" not in i_train
    assert "pB" in i_train and "pB" not in i_test


def test_split_log_at_window_end_excluded():
    t = MONDAY + 14 * 86_400
    spec = SplitSpec(t_split=t, dt_train=7 * 86_400, dt_test=7 * 86_400)
    logs = [log(t=t - 1), log(t=t), log(t=t + spec.dt_test)]
    sp = split(log_table(logs), program_table([meta(start=t - 1, dur=600)]), spec)
    assert len(sp.d_train) == 1 and len(sp.d_test) == 1


def test_split_empty_window_is_error():
    spec = SplitSpec(t_split=MONDAY)
    with pytest.raises(DataError):
        split(log_table([log(t=MONDAY - 86_400)]), program_table([meta()]), spec)


def test_split_item_sets_always_disjoint():
    rng = random.Random(5)
    for _ in range(50):
        t = MONDAY + rng.randrange(30 * 86_400)
        spec = SplitSpec(
            t_split=t, dt_train=rng.randrange(1, 30) * 86_400, dt_test=rng.randrange(1, 10) * 86_400
        )
        metas = [
            meta(program=f"p{i}", start=MONDAY + rng.randrange(40 * 86_400)) for i in range(60)
        ]
        logs = [log(program="p0", t=t - 1), log(program="p0", t=t)]
        sp = split(log_table(logs), program_table(metas), spec)
        assert not (sp.i_train & sp.i_test).any()


# tensor construction


def total(tensor):
    return sum(sum(cells.values()) for cells in tensor.values())


def test_build_tensor_counts_repeated_views_in_one_slot():
    logs = [log(t=MONDAY + 4 * 900), log(t=MONDAY + 4 * 900 + 30)]
    tensor = tensor_dicts(build_named(log_table(logs), program_table([meta()]), GRID, **P1_U1))
    assert tensor["u1"][("p1", 5, "c1")] == 2


def test_build_tensor_single_log_single_cell():
    tensor = tensor_dicts(build_named(log_table([log(t=MONDAY)]), program_table([meta()]), GRID, **P1_U1))
    assert tensor["u1"] == {("p1", 1, "c1"): 1}
    assert total(tensor) == 1


def test_build_tensor_unknown_program_error_lists_ids():
    with pytest.raises(DataError, match="p-unknown"):
        build_named(log_table([log(program="p-unknown")]), program_table([meta()]), GRID, **P1_U1)


def test_build_tensor_restricts_users_and_items():
    programs = program_table([meta(program="p1"), meta(program="p2")])
    logs = [log(user="u1", program="p1"), log(user="u2", program="p1"), log(user="u1", program="p2")]
    restrict = {"items": frozenset({"p1"}), "users": frozenset({"u1"})}
    tensor = tensor_dicts(build_named(log_table(logs), programs, GRID, **restrict))
    assert tensor.keys() == {"u1"}
    assert total(tensor) == 1


def test_tensor_total_matches_restricted_log_count():
    rng = random.Random(9)
    programs = program_table(meta(program=f"p{i}") for i in range(10))
    logs = [
        log(user=f"u{rng.randrange(4)}", program=f"p{rng.randrange(10)}", t=MONDAY + rng.randrange(86_400))
        for _ in range(300)
    ]
    users = frozenset({"u0", "u1"})
    items = frozenset({"p0", "p1", "p2"})
    tensor = tensor_dicts(build_named(log_table(logs), programs, GRID, items=items, users=users))
    expected = sum(1 for g in logs if g.user in users and g.program in items)
    assert total(tensor) == expected


@pytest.mark.parametrize(
    "grid",
    [GRID, TimeGrid(n=7, utc_offset=-5 * 3600), TimeGrid(n=1), TimeGrid(n=96, utc_offset=10**20 + 1)],
)
def test_build_tensor_slots_match_slot_of_at_int64_edges(grid):
    ts = [2**63 - 1, -(2**63 - 1), -(2**63), -1, 0, MONDAY + 4 * 900]
    logs = log_table([log(program=f"p{i}", t=t) for i, t in enumerate(ts)])
    programs = program_table(meta(program=f"p{i}") for i in range(len(ts)))
    items = frozenset(programs.program_names)
    tensor = tensor_dicts(build_named(logs, programs, grid, items=items, users=frozenset({"u1"})))
    # One cell per log, in the tensor's order: by slot, then channel, then program.
    want = sorted(((f"p{i}", slot_of(t, grid), "c1") for i, t in enumerate(ts)), key=lambda c: (c[1], c[2], c[0]))
    assert list(tensor["u1"]) == want


# ground truth


def test_ground_truth_set_semantics():
    d_test = [log(program="p1"), log(program="p1", t=MONDAY + 60), log(program="p2")]
    truth = ground_truth_map(log_table(d_test), items=frozenset({"p1", "p2"}))
    assert truth == {"u1": frozenset({"p1", "p2"})}


def test_ground_truth_single_log():
    truth = ground_truth_map(log_table([log(program="p7")]), items=frozenset({"p7"}))
    assert truth == {"u1": frozenset({"p7"})}


def test_ground_truth_respects_item_restriction():
    d_test = [log(program="p1"), log(program="p-old")]
    assert ground_truth_map(log_table(d_test), items=frozenset({"p1"})) == {"u1": frozenset({"p1"})}


# full preprocessing


def _two_week_dataset():
    t_split = MONDAY + 7 * 86_400
    metas = [
        meta(program="p-train", start=MONDAY + 3600),
        meta(program="p-test", start=t_split + 3600),
    ]
    logs = [
        log(user="both", program="p-train", t=MONDAY + 3600),
        log(user="both", program="p-test", t=t_split + 3600),
        log(user="train-only", program="p-train", t=MONDAY + 7200),
        log(user="flip", program="p-train", t=MONDAY + 3600, dt=100),
    ]
    spec = SplitSpec(t_split=t_split, dt_train=7 * 86_400, dt_test=7 * 86_400)
    return log_table(logs), program_table(metas), spec


def test_prepare_excludes_users_missing_from_either_half():
    logs, metas, spec = _two_week_dataset()
    prepared, _ = prepare(logs, metas, GRID, spec)
    assert prepared.cells.users == ("both",)
    sp = split(filter_flips(logs), metas, spec)
    assert named(sp.d_train.user_names, users_in_both(sp.d_train, sp.d_test)) == {"both"}
    assert prepared.truths() == {"both": ("p-test",)}


def test_prepare_summary_reports_dataset_statistics():
    logs, metas, spec = _two_week_dataset()
    _, summary = prepare(logs, metas, GRID, spec)
    assert summary["d_train"] == 2
    assert summary["d_test"] == 1
    assert summary["i_train"] == 1
    assert summary["i_test"] == 1
    assert summary["users"] == 1
    assert summary["mean_truth_size"] == 1.0


def test_prepare_counters_reconcile_with_parsed_rows():
    logs, metas, spec = _two_week_dataset()
    keys = ("user", "program", "channel", "t", "dt")
    lines = [json.dumps(dict(zip(keys, row))) for row in table_rows(logs)]
    parsed, skipped = parse_logs(lines + ["{not json"])
    _, summary = prepare(parsed, metas, GRID, spec)
    assert len(parsed) + skipped == len(lines) + 1
    # Every log of this dataset falls inside one of the two windows.
    assert len(parsed) - summary["flips_dropped"] == summary["d_train"] + summary["d_test"]
    assert summary["flips_dropped"] == 1
    # "train-only" is in one half only; "flip" has no log left in either.
    assert summary["users_outside_both_halves"] == 1


def test_prepare_rejects_duplicate_program_ids():
    logs, metas, spec = _two_week_dataset()
    rows = program_records(metas)
    with pytest.raises(DataError, match="duplicate program id 'p-train'"):
        prepare(logs, program_table(rows + rows[:1]), GRID, spec)


# the prepared file


def assert_same_prepared(got: Prepared, want: Prepared) -> None:
    """Every name table and every array equal, arrays in dtype too."""
    for a, b in ((got, want), (got.cells, want.cells)):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
            elif f.name != "cells":
                assert type(x) is tuple and x == y, f.name


def test_prepared_file_round_trips_in_order(tmp_path):
    cfg = synth.SynthConfig(n_users=30, n_channels=4, n_topics=5, weeks_train=2, weeks_test=1, rng_seed=5)
    world = synth.gen_world(cfg)
    # Texts with non-ASCII characters and a lone surrogate, as a JSON escape can give.
    metas = [replace(m, text=m.text + " T\u00e9l\u00e9 \u6771\u4eac \ud800") if i % 5 == 0 else m
             for i, m in enumerate(program_records(world.programs))]
    spec = SplitSpec(t_split=cfg.t_split, dt_train=2 * SECONDS_PER_WEEK, dt_test=SECONDS_PER_WEEK)
    logs = synth.gen_logs(world)
    prepared, _ = prepare(logs, program_table(metas), cfg.grid, spec)
    manifest = {"inputs": {"logs": "a", "programs": "b"}, "grid": [cfg.grid.n, 0]}
    paths = [tmp_path / "one.npz", tmp_path / "two.npz"]
    for path in paths:
        with open(path, "wb") as fh:
            dump_prepared(fh, prepared, manifest)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert_same_prepared(load_prepared(paths[0], manifest, cfg.grid), prepared)
    with pytest.raises(DataError, match="other inputs"):
        load_prepared(paths[0], {**manifest, "inputs": {"logs": "a", "programs": "c"}}, cfg.grid)

    # What the prepared dataset holds, against the stages it comes from.
    programs = program_table(metas)
    sp = split(filter_flips(logs), programs, spec)
    by_id = {m.program: m for m in metas}
    tensor = tensor_dicts(
        build_tensor(sp.d_train, programs, cfg.grid, items=sp.i_train, users=users_in_both(sp.d_train, sp.d_test))
    )
    # Same users, cells and counts, in the same order of users and of each user's cells.
    assert list(tensor_dicts(prepared.cells).items()) == list(tensor.items())
    corpus = list(zip(prepared.cells.program_names, prepared.texts))
    i_train, i_test = (named(programs.program_names, mask) for mask in (sp.i_train, sp.i_test))
    assert corpus == [(pid, by_id[pid].text) for pid in sorted(i_train | i_test)]
    assert any("\ud800" in text for text in prepared.texts)
    by_start = sorted(i_test, key=lambda pid: (by_id[pid].start, pid))
    assert program_records(prepared.test_programs()) == [by_id[pid] for pid in by_start]
    truths = ground_truth_map(sp.d_test, i_test)
    assert list(prepared.truths().items()) == [(u, tuple(sorted(truths[u]))) for u in sorted(tensor) if u in truths]
    cells = prepared.cells
    watched = {item for c in tensor.values() for item, _, _ in c}
    assert {cells.program_names[p] for p in cells.program.tolist()} == watched


# the record oracle

ORACLE_USERS = ["u0", "u1", "u2", "\u00fc3", "u4"]
ORACLE_PROGRAMS = [f"p{i}" for i in range(12)] + ["pr\u00f6g"]
ORACLE_CHANNELS = ["c0", "c1", "c2"]
ORACLE_GRIDS = [GRID, TimeGrid(n=7, utc_offset=3600), TimeGrid(n=96, utc_offset=-(10**19))]
INT64_EDGES = [2**63 - 1, -(2**63 - 1), -(2**63), 2**63, -(2**63) - 1]


def _row(rng, **fields):
    row = {
        "user": rng.choice(ORACLE_USERS),
        "program": rng.choice(ORACLE_PROGRAMS),
        "channel": rng.choice(ORACLE_CHANNELS),
        "t": MONDAY + rng.randrange(-3 * 604_800, 3 * 604_800),
        "dt": rng.randrange(0, 3000),
    }
    return {**row, **fields}


def _dumps(row) -> bytes:
    return json.dumps(row, ensure_ascii=False).encode()


def _mixed_lines(rng, kind) -> list[bytes]:
    """Raw lines of one kind: a valid row or one way for a line to be malformed or blank."""
    valid = _dumps(_row(rng))
    if kind == "valid":
        return [valid]
    if kind == "bad type":
        bad = rng.choice([True, False, 1.5, 1e3, "123", None, float("nan")])
        return [_dumps(_row(rng, **{rng.choice(("t", "dt", "user")): bad}))]
    if kind == "negative dt":
        return [_dumps(_row(rng, dt=-rng.randrange(1, 100)))]
    if kind == "missing key":
        row = _row(rng)
        del row[rng.choice(list(row))]
        return [_dumps(row)]
    if kind == "not an object":
        return [rng.choice([b"[1, 2]", b'"row"', b"5", b"null", b"true", b"{}"])]
    if kind == "extra data":
        return [valid + rng.choice([b" x", b"{}", b" 1", b","])]
    if kind == "joined-decode trap":
        fields = valid[1:-1]
        return [b"{" + fields + b',"z":"', b'"}', valid + b"," + valid]
    if kind == "blank":
        return [rng.choice([b"", b"   ", b"\t", " \u00a0 ".encode()])]
    if kind == "not UTF-8":
        return [rng.choice([valid.replace(b'"u', b'"\xff', 1), valid + b"\xed\xa0\x80", b"\xe2\x82" + valid])]
    assert kind == "int64 edge"
    return [_dumps(_row(rng, **{rng.choice(("t", "dt")): rng.choice(INT64_EDGES)}))]


MALFORMED_KINDS = [
    "bad type", "negative dt", "missing key", "not an object", "extra data",
    "joined-decode trap", "blank", "not UTF-8", "int64 edge",
]


@pytest.mark.parametrize("seed", range(4))
def test_ingestion_matches_record_oracle(seed, tmp_path):
    rng = random.Random(seed)
    lines = [b"\xef\xbb\xbf" + _dumps(_row(rng))]  # a leading BOM makes the first line malformed
    while len(lines) < 500:
        kind = "valid" if rng.random() < 0.6 else rng.choice(MALFORMED_KINDS)
        lines += _mixed_lines(rng, kind)
    blob = b"".join(line + rng.choice((b"\n", b"\r\n")) for line in lines)
    path = tmp_path / "logs.jsonl"
    path.write_bytes(blob)

    with open_jsonl(path) as fh:
        table, skipped = parse_logs(fh)
    records, want_skipped = parse_log_records(blob.split(b"\n"))
    assert table_rows(table) == [(g.user, g.program, g.channel, g.t, g.dt) for g in records]
    assert skipped == want_skipped and skipped > 0

    grid = ORACLE_GRIDS[seed % len(ORACLE_GRIDS)]
    metas = {pid: meta(program=pid) for pid in ORACLE_PROGRAMS}
    items = frozenset(rng.sample(ORACLE_PROGRAMS, 8))
    users = frozenset(rng.sample(ORACLE_USERS, 3))
    cells = build_named(table, program_table(metas.values()), grid, items=items, users=users)
    want = build_tensor_records(records, metas, grid, items=items, users=users)
    assert [(u, list(c.items())) for u, c in tensor_dicts(cells).items()] == [
        (u, list(c.items())) for u, c in want.items()
    ]
    assert cells.channels() == {channel for c in want.values() for _, _, channel in c}
    assert list(ground_truth_map(table, items).items()) == list(ground_truth_records(records, items).items())


# the block path of parse_logs


@pytest.fixture(scope="module")
def synth_data(tmp_path_factory):
    """A `tvrec synth` dataset whose logs span several blocks of parse_logs."""
    data = tmp_path_factory.mktemp("synth")
    shape = {"n_users": 70, "n_channels": 4, "n_topics": 5, "weeks_train": 2, "weeks_test": 1, "rng_seed": 11}
    (data / "synth.json").write_text(json.dumps(shape))
    assert cli.main(["synth", "--config", str(data / "synth.json"), "--out-dir", str(data)]) == 0
    return data


def _same_rows(table, records):
    """``table`` holds ``records``, with names coded by first appearance."""
    assert table_rows(table) == [(g.user, g.program, g.channel, g.t, g.dt) for g in records]
    for field in ("user", "program", "channel"):
        first_seen = tuple(dict.fromkeys(getattr(g, field) for g in records))
        assert getattr(table, f"{field}_names") == first_seen, field


def _same_tables(a, b):
    assert (a.user_names, a.program_names, a.channel_names) == (b.user_names, b.program_names, b.channel_names)
    for col in ("user", "program", "channel", "t", "dt"):
        x, y = getattr(a, col), getattr(b, col)
        assert x.dtype == y.dtype and np.array_equal(x, y), col


def test_synth_logs_never_reach_the_line_decoder(synth_data, monkeypatch):
    # Every block of synth's logs has the canonical shape. A change to synth's
    # output or to the pattern that sent blocks to the line decoder would
    # keep every row and lose the block path's speed; this makes it fail.
    path = synth_data / "logs.jsonl"
    with open_jsonl(path) as fh:
        want, skipped = parse_logs(fh)
    assert len(want) > 2 * datamodel._BLOCK_LINES and skipped == 0
    _same_rows(want, parse_log_records(path.read_bytes().split(b"\n"))[0])

    def no_decoder(*args):
        raise AssertionError("a block of synth's logs went to the line decoder")

    monkeypatch.setattr(datamodel, "_decode_lines", no_decoder)
    with open_jsonl(path) as fh:
        got, skipped = parse_logs(fh)
    assert skipped == 0
    _same_tables(got, want)


def test_a_nul_or_newline_inside_a_line_is_not_a_line_boundary():
    # Blocks are joined by NUL and each canonical line ends in a newline; a
    # line given as a string that holds either must stay one line.
    log_line = '{"user": "u", "program": "p", "channel": "c", "t": 5, "dt": 6}\n'
    program_line = '{"program": "p", "channel": "c", "start": 5, "end": 6, "text": "t"}\n'
    for parse, line in ((parse_logs, log_line), (parse_programs, program_line)):
        rows, skipped = parse([line, line + "\0" + line, line])
        assert len(rows) == 2 and skipped == 1
        rows, skipped = parse([line, line[:-1] + "\0" + line])
        assert len(rows) == 1 and skipped == 1
        for lines in ([line + "x\n", line, line], [line, line + "x\n", line], [line, line, line + "x\n"]):
            rows, skipped = parse(lines)
            assert len(rows) == 2 and skipped == 1


def test_a_name_over_64_bytes_sends_its_line_to_the_line_decoder(monkeypatch):
    # The block path's name keys take (longest name) x (lines) bytes, so a
    # long name must not reach it: its line and the rest of its block go to
    # the line decoder, and the lines before it do not.
    decode, calls = datamodel._decode_lines, []

    def counting(lines, *rest):
        calls.append(len(lines))
        return decode(lines, *rest)

    monkeypatch.setattr(datamodel, "_decode_lines", counting)
    short = json.dumps({"user": "u", "program": "p", "channel": "c", "t": 5, "dt": 6}) + "\n"
    for width, decoded in ((64, []), (65, [2])):
        calls.clear()
        line = json.dumps({"user": "u" * width, "program": "p", "channel": "c", "t": 5, "dt": 6}) + "\n"
        logs, skipped = parse_logs([short, line, short])
        assert table_rows(logs) == [("u", "p", "c", 5, 6), ("u" * width, "p", "c", 5, 6), ("u", "p", "c", 5, 6)]
        assert skipped == 0 and calls == decoded


def _mutants(rng, line: bytes) -> list[list[bytes]]:
    """One or two damaged copies of a canonical log or program line per kind
    of damage; each copy is a list of lines. No copy holds a line break."""
    row = json.loads(line)
    keys = list(row)
    retyped = (keys[0], keys[3])  # a string and an integer field
    flip_at = rng.randrange(len(line))
    flipped = line[flip_at] ^ (1 << rng.randrange(8))
    if flipped in b"\r\n":
        flipped ^= 0x40
    insert_at = rng.randrange(len(line) + 1)
    dropped = dict(row)
    del dropped[rng.choice(list(row))]
    deep = b"[" * 100_000 + b"]" * 100_000
    return [
        [line[: rng.randrange(1, len(line))]],
        [line[:flip_at] + bytes([flipped]) + line[flip_at + 1 :]],
        [json.dumps(dropped).encode()],
        *([json.dumps({**row, key: rng.choice(["7", 7.5, [7], None, True, {}])}).encode()] for key in retyped),
        [line[:-1] + b', "z": ' + deep + b"}"],
        [deep],
        [line[:insert_at] + rng.choice([b"\xff", b"\xed\xa0\x80", b"\xc3"]) + line[insert_at:]],
        [line, line],
    ]


def _edge_lines(line: bytes) -> list[list[bytes]]:
    """Lines at the edges of the canonical shape: each decodes or fails the
    same way read alone, but only some have the shape."""
    row = json.loads(line)

    def dumps(**fields):
        return json.dumps({**row, **fields}).encode()

    raw_name = dumps(user="@").replace(b'"@"', b'"a\x01b"')
    edges = [
        dumps(t=0).replace(b'"t": 0,', b'"t": -0,'),
        dumps(dt=0).replace(b'"dt": 0}', b'"dt": -0}'),
        dumps(t=1).replace(b'"t": 1,', b'"t": 01,'),
        dumps(dt=1).replace(b'"dt": 1}', b'"dt": +1}'),
        dumps(t=10**17 * 9 + 7),  # 18 digits
        dumps(t=-(10**18) + 1),
        dumps(t=10**18 + 3),  # 19 digits
        dumps(dt=2**63 - 1),
        dumps(t=-(2**63)),
        dumps(t=2**63),
        dumps(dt=2**63),
        dumps(dt=-5),
        dumps(user='say "hi"'),
        dumps(program="a\\b"),
        dumps(channel="café"),
        json.dumps({**row, "channel": "café"}, ensure_ascii=False).encode(),
        dumps(user="del\x7f"),
        dumps(user="ctl\x01"),
        raw_name,
        raw_name.replace(b"\x01", b"\t"),
        dumps(user=""),
        dumps(program="", channel=""),
        dumps(program="p" * 17),
        dumps(user="u" * 40, channel="c" * 9),
        dumps(program="q" * 64),
        dumps(channel="r" * 30),
        dumps(channel="r" * 64),
        dumps(channel="r" * 65),
        dumps(user="v" * 100_000),
        json.dumps(row, separators=(",", ":")).encode(),
        json.dumps(dict(reversed(row.items()))).encode(),
        dumps(z=1),
        line[:-1] + b', "user": "twice"}',
        line + b"\r",  # CRLF, read as a newline
        b"",
        b" \t ",
        b"  " + line,
        line + b" ",
        line + b"\x00" + line,
        b"\x00",
    ]
    return [[edge] for edge in edges]


def _parse_outcome(parse, source):
    try:
        rows, skipped = parse(source)
    except DataError as exc:
        return "refused", str(exc)
    return rows, skipped


def test_block_path_matches_the_record_oracle_on_damaged_and_edge_lines(synth_data, tmp_path, monkeypatch):
    # Each damaged or edge line sits at the first, a middle and the last line
    # of a block, among canonical lines from synth. Blocks are cut small here
    # so that the file holds many; every block is cut the same way at any size.
    rng = random.Random(20231)
    block = 16
    monkeypatch.setattr(datamodel, "_BLOCK_LINES", block)
    canonical = (synth_data / "logs.jsonl").read_bytes().splitlines()
    mutants = [unit for line in rng.sample(canonical, 3) for unit in _mutants(rng, line)]
    lines = []
    for place in ("first", "middle", "last"):
        for unit in mutants + _edge_lines(rng.choice(canonical)):
            rows = [rng.choice(canonical) for _ in range(block - len(unit))]
            at = {"first": 0, "middle": block // 2, "last": len(rows)}[place]
            lines += rows[:at] + unit + rows[at:]
    lines += [rng.choice(canonical) + b"\r" for _ in range(block)]  # a block of CRLF lines
    mostly_good = b"\n".join(lines)  # without a final newline
    mostly_bad = b"\n".join(line for unit in mutants for line in unit) + b"\n"

    engine = {
        "preprocessing": {"t_split": synth.SynthConfig(weeks_train=2).t_split, "train_days": 14, "test_days": 7},
        "paths": {"programs": str(synth_data / "programs.jsonl"), "out_dir": str(tmp_path / "out")},
    }
    for name, blob in (("good", mostly_good), ("bad", mostly_bad)):
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(blob)
        with open_jsonl(path) as fh:
            got = _parse_outcome(parse_logs, fh)
        want = _parse_outcome(parse_log_records, re.split(rb"\r\n|\r|\n", blob))
        if want[0] == "refused":
            assert got == want
        else:
            _same_rows(got[0], want[0])
            assert got[1] == want[1]
        assert (name, want[0] == "refused") in {("good", False), ("bad", True)}

        engine["paths"]["logs"] = str(path)
        cfg = tmp_path / f"{name}.engine.json"
        cfg.write_text(json.dumps(engine))
        assert cli.main(["prep", "--config", str(cfg)]) in (0, 3)


# the block path of parse_programs


def _same_programs(table, records):
    """``table`` holds ``records``, with ids and channels coded by first appearance."""
    assert program_records(table) == records
    assert table.program_names == tuple(dict.fromkeys(m.program for m in records))
    assert table.channel_names == tuple(dict.fromkeys(m.channel for m in records))


def test_synth_programs_never_reach_the_line_decoder(synth_data, monkeypatch):
    # As for logs: every block of synth's programs has the canonical shape,
    # so a change that sent one to the line decoder fails here.
    monkeypatch.setattr(datamodel, "_BLOCK_LINES", 1024)
    path = synth_data / "programs.jsonl"
    with open_jsonl(path) as fh:
        want, skipped = parse_programs(fh)
    assert len(want) > 2 * datamodel._BLOCK_LINES and skipped == 0
    _same_programs(want, parse_program_records(path.read_bytes().split(b"\n"))[0])

    def no_decoder(*args):
        raise AssertionError("a block of synth's programs went to the line decoder")

    monkeypatch.setattr(datamodel, "_decode_lines", no_decoder)
    with open_jsonl(path) as fh:
        got, skipped = parse_programs(fh)
    assert skipped == 0
    assert (got.program_names, got.channel_names, got.text) == (want.program_names, want.channel_names, want.text)
    for col in ("program", "channel", "start", "end"):
        x, y = getattr(got, col), getattr(want, col)
        assert x.dtype == y.dtype and np.array_equal(x, y), col


def _program_edge_lines(line: bytes) -> list[list[bytes]]:
    """Program lines at the edges of the canonical shape and of a program's
    rules: each decodes or fails the same way read alone."""
    row = json.loads(line)
    start = row["start"]

    def dumps(**fields):
        return json.dumps({**row, **fields}).encode()

    edges = [
        *(dumps(**{key: bad}) for key, bad in (("start", "7"), ("end", 7.5), ("text", None), ("channel", True))),
        dumps(program=["p"]),
        dumps(start=True),
        *(json.dumps({k: v for k, v in row.items() if k != key}).encode() for key in ("end", "text")),
        dumps(end=start),  # start == end
        dumps(end=start - 1),
        dumps(end=start + SECONDS_PER_WEEK),  # a week long
        dumps(end=start + SECONDS_PER_WEEK - 1),
        dumps(start=-(2**63), end=-(2**63) + 5),
        dumps(start=2**63 - 10, end=2**63 - 1),
        dumps(start=2**63 - 10, end=2**63),
        dumps(start=-(2**63) - 1, end=-(2**63) + 5),
        dumps(start=10**18 + 3, end=10**18 + 9),  # 19 digits
        dumps(start=-(10**17) * 9, end=-(10**17) * 9 + 1),  # 18 digits
        dumps(start=0).replace(b'"start": 0,', b'"start": -0,'),
        dumps(end=start + 1).replace(b'"end": ', b'"end": 0'),
        line,  # the same program twice
        dumps(channel="other", text="another text"),  # the same id, another row
        dumps(text='say "hi"'),
        dumps(text="a\\b"),
        dumps(text="café"),
        json.dumps({**row, "text": "café 東京"}, ensure_ascii=False).encode(),
        dumps(text="tab\there"),
        dumps(text="del\x7f"),
        dumps(text=""),
        dumps(text="x" * 5000),
        dumps(program="p" * 64),
        dumps(program="p" * 65),
        dumps(channel="c" * 65),
        dumps(program="", channel=""),
        dumps(z=1),
        json.dumps(row, separators=(",", ":")).encode(),
        json.dumps(dict(reversed(row.items()))).encode(),
        line[:-1] + b', "text": "twice"}',
        line + b"\x00" + line,  # NUL inside a line
        line[:-1] + b"\x00}",
        line[:40] + b"\r" + line[40:],  # a line break inside a line
        line.replace(b'"c', b'"\xff', 1),  # not UTF-8
        line + b"\xed\xa0\x80",
        b"  " + line + b" ",
        b"",
    ]
    return [[edge] for edge in edges]


def test_program_block_path_matches_the_record_oracle_on_damaged_and_edge_lines(synth_data, tmp_path, monkeypatch):
    # The programs' twin of the log test above: each damaged or edge line at
    # the first, a middle and the last line of a small block.
    rng = random.Random(20241)
    block = 16
    monkeypatch.setattr(datamodel, "_BLOCK_LINES", block)
    canonical = (synth_data / "programs.jsonl").read_bytes().splitlines()
    mutants = [unit for line in rng.sample(canonical, 3) for unit in _mutants(rng, line)]
    lines = []
    for place in ("first", "middle", "last"):
        for unit in mutants + _program_edge_lines(rng.choice(canonical)):
            rows = [rng.choice(canonical) for _ in range(block - len(unit))]
            at = {"first": 0, "middle": block // 2, "last": len(rows)}[place]
            lines += rows[:at] + unit + rows[at:]
    mostly_good = b"\n".join(lines) + b"\n"
    mostly_bad = b"\n".join(line for unit in mutants for line in unit) + b"\n"

    engine = {
        "preprocessing": {"t_split": synth.SynthConfig(weeks_train=2).t_split, "train_days": 14, "test_days": 7},
        "paths": {"logs": str(synth_data / "logs.jsonl"), "out_dir": str(tmp_path / "out")},
    }
    for name, blob in (("good", mostly_good), ("bad", mostly_bad)):
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(blob)
        with open_jsonl(path) as fh:
            got = _parse_outcome(parse_programs, fh)
        want = _parse_outcome(parse_program_records, re.split(rb"\r\n|\r|\n", blob))
        if want[0] == "refused":
            assert got == want
        else:
            _same_programs(got[0], want[0])
            assert got[1] == want[1]
        assert (name, want[0] == "refused") in {("good", False), ("bad", True)}

        engine["paths"]["programs"] = str(path)
        cfg = tmp_path / f"{name}.engine.json"
        cfg.write_text(json.dumps(engine))
        assert cli.main(["prep", "--config", str(cfg)]) in (0, 3)
