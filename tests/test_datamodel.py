import json
import random

import pytest

from tvrec.datamodel import (
    ProgramMeta,
    SplitSpec,
    ViewingLog,
    build_tensor,
    filter_flips,
    ground_truth_map,
    parse_logs,
    parse_programs,
    prepare,
    split,
    users_in_both,
)
from tvrec.errors import DataError
from tvrec.timegrid import TimeGrid

MONDAY = 1_554_076_800
GRID = TimeGrid(n=672)
P1_U1 = {"items": frozenset({"p1"}), "users": frozenset({"u1"})}  # the defaults of log() and meta()


def log(user="u1", program="p1", channel="c1", t=MONDAY, dt=1200):
    return ViewingLog(user=user, program=program, channel=channel, t=t, dt=dt)


def meta(program="p1", channel="c1", start=MONDAY, dur=1800, text=""):
    return ProgramMeta(program=program, channel=channel, start=start, end=start + dur, text=text)


# parsing


def test_parse_logs_direct_field_mapping():
    line = '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":1200}'
    logs, skipped = parse_logs([line])
    assert logs == [ViewingLog("u1", "p9", "c3", 1554076800, 1200)]
    assert skipped == 0


def test_parse_logs_empty_input():
    assert parse_logs([]) == ([], 0)


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
    metas, skipped = parse_programs([line])
    assert metas == [m] and skipped == 0


def test_parse_programs_invalid_interval_skipped():
    line = json.dumps({"program": "p", "channel": "c", "start": 10, "end": 10, "text": ""})
    metas, skipped = parse_programs([line, line, json.dumps(
        {"program": "p", "channel": "c", "start": 10, "end": 20, "text": ""}
    ), json.dumps({"program": "q", "channel": "c", "start": 10, "end": 20, "text": ""}),
        json.dumps({"program": "r", "channel": "c", "start": 10, "end": 20, "text": ""})])
    assert len(metas) == 3
    assert skipped == 2


# flip filtering


def test_filter_flips_boundary_inclusive():
    kept = filter_flips([log(dt=900)], dt_min=900)
    assert len(kept) == 1


def test_filter_flips_below_threshold_dropped():
    assert filter_flips([log(dt=899)], dt_min=900) == []


def test_filter_flips_zero_threshold_is_identity():
    logs = [log(dt=0), log(dt=5), log(dt=10_000)]
    assert filter_flips(logs, dt_min=0) == logs


def test_filter_flips_idempotent():
    rng = random.Random(3)
    logs = [log(dt=rng.randrange(0, 3000)) for _ in range(200)]
    once = filter_flips(logs)
    assert filter_flips(once) == once


# splitting


def test_split_program_starting_exactly_at_t_split_is_test():
    t = MONDAY + 14 * 86_400
    metas = [meta(program="pA", start=t), meta(program="pB", start=t - 1, dur=1800)]
    logs = [log(program="pA", t=t), log(program="pB", t=t - 1)]
    sp = split(logs, metas, SplitSpec(t_split=t, dt_train=7 * 86_400, dt_test=7 * 86_400))
    assert "pA" in sp.i_test and "pA" not in sp.i_train
    assert "pB" in sp.i_train and "pB" not in sp.i_test


def test_split_log_at_window_end_excluded():
    t = MONDAY + 14 * 86_400
    spec = SplitSpec(t_split=t, dt_train=7 * 86_400, dt_test=7 * 86_400)
    logs = [log(t=t - 1), log(t=t), log(t=t + spec.dt_test)]
    sp = split(logs, [meta(start=t - 1, dur=600)], spec)
    assert len(sp.d_train) == 1 and len(sp.d_test) == 1


def test_split_empty_window_is_error():
    spec = SplitSpec(t_split=MONDAY)
    with pytest.raises(DataError):
        split([log(t=MONDAY - 86_400)], [meta()], spec)


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
        sp = split(logs, metas, spec)
        assert not sp.i_train & sp.i_test


# tensor construction


def total(tensor):
    return sum(sum(cells.values()) for cells in tensor.by_user.values())


def test_build_tensor_counts_repeated_views_in_one_slot():
    metas = {"p1": meta()}
    logs = [log(t=MONDAY + 4 * 900), log(t=MONDAY + 4 * 900 + 30)]
    tensor = build_tensor(logs, metas, GRID, **P1_U1)
    assert tensor.by_user["u1"][("p1", 5, "c1")] == 2


def test_build_tensor_single_log_single_cell():
    tensor = build_tensor([log(t=MONDAY)], {"p1": meta()}, GRID, **P1_U1)
    assert tensor.by_user["u1"] == {("p1", 1, "c1"): 1}
    assert total(tensor) == 1


def test_build_tensor_unknown_program_error_lists_ids():
    with pytest.raises(DataError, match="p-unknown"):
        build_tensor([log(program="p-unknown")], {"p1": meta()}, GRID, **P1_U1)


def test_build_tensor_restricts_users_and_items():
    metas = {"p1": meta(program="p1"), "p2": meta(program="p2")}
    logs = [log(user="u1", program="p1"), log(user="u2", program="p1"), log(user="u1", program="p2")]
    tensor = build_tensor(logs, metas, GRID, items=frozenset({"p1"}), users=frozenset({"u1"}))
    assert tensor.users == {"u1"}
    assert total(tensor) == 1


def test_tensor_total_matches_restricted_log_count():
    rng = random.Random(9)
    metas = {f"p{i}": meta(program=f"p{i}") for i in range(10)}
    logs = [
        log(user=f"u{rng.randrange(4)}", program=f"p{rng.randrange(10)}", t=MONDAY + rng.randrange(86_400))
        for _ in range(300)
    ]
    users = frozenset({"u0", "u1"})
    items = frozenset({"p0", "p1", "p2"})
    tensor = build_tensor(logs, metas, GRID, items=items, users=users)
    expected = sum(1 for g in logs if g.user in users and g.program in items)
    assert total(tensor) == expected


# ground truth


def test_ground_truth_set_semantics():
    d_test = [log(program="p1"), log(program="p1", t=MONDAY + 60), log(program="p2")]
    assert ground_truth_map(d_test, items=frozenset({"p1", "p2"})) == {"u1": frozenset({"p1", "p2"})}


def test_ground_truth_single_log():
    assert ground_truth_map([log(program="p7")], items=frozenset({"p7"})) == {"u1": frozenset({"p7"})}


def test_ground_truth_respects_item_restriction():
    d_test = [log(program="p1"), log(program="p-old")]
    assert ground_truth_map(d_test, items=frozenset({"p1"})) == {"u1": frozenset({"p1"})}


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
    return logs, metas, spec


def test_prepare_excludes_users_missing_from_either_half():
    logs, metas, spec = _two_week_dataset()
    prepared = prepare(logs, metas, GRID, spec)
    assert prepared.tensor.users == {"both"}
    assert users_in_both(prepared.split.d_train, prepared.split.d_test) == {"both"}
    assert prepared.truths == {"both": frozenset({"p-test"})}


def test_prepare_summary_reports_dataset_statistics():
    logs, metas, spec = _two_week_dataset()
    summary = prepare(logs, metas, GRID, spec).summary
    assert summary["d_train"] == 2
    assert summary["d_test"] == 1
    assert summary["i_train"] == 1
    assert summary["i_test"] == 1
    assert summary["users"] == 1
    assert summary["mean_truth_size"] == 1.0


def test_prepare_rejects_duplicate_program_ids():
    logs, metas, spec = _two_week_dataset()
    with pytest.raises(DataError):
        prepare(logs, metas + [metas[0]], GRID, spec)
