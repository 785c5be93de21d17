"""The benchmark's reference checker accepts real pipeline outputs and
rejects corrupted copies of them.

    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tvrec import cli, synth  # noqa: E402

SHAPE = {"n_users": 60, "n_channels": 8, "n_topics": 10, "weeks_train": 2, "weeks_test": 1}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    data, out = root / "data", root / "out"
    (root / "synth.json").write_text(json.dumps(SHAPE))
    cfg = synth.SynthConfig(rng_seed=3, **SHAPE)
    common = [
        "--logs", str(data / "logs.jsonl"), "--programs", str(data / "programs.jsonl"),
        "--out-dir", str(out),
    ]
    split = ["--t-split", str(cfg.t_split), "--train-days", "14", "--test-days", "7"]
    steps = [
        ["synth", "--config", str(root / "synth.json"), "--out-dir", str(data), "--seed", "3"],
        ["prep", *common, *split],
        ["build", *common, *split],
    ]
    for method in ("two-stage", "rrf"):
        steps += [["recommend", *common, "--method", method], ["evaluate", *common, "--method", method]]
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    setup = reference.Setup(t_split=cfg.t_split, train_secs=14 * 86_400, test_secs=7 * 86_400)
    return reference.Reference(data, setup), out


def _outputs(out: Path, method: str):
    recs = reference.read_jsonl(out / f"recs_{method}.jsonl")
    report = json.loads((out / f"metrics_{method}.json").read_text())["report"]
    return recs, report


def test_real_outputs_pass(world):
    ref, out = world
    assert reference.check_truth(ref, reference.read_jsonl(out / "truth.jsonl")) == []
    for method, check in (("two-stage", reference.check_two_stage), ("rrf", reference.check_rrf)):
        recs, report = _outputs(out, method)
        assert reference.check_rows(ref, recs) == []
        assert reference.check_metrics(ref, recs, report) == []
        for row in recs:
            assert check(ref, row["user"], row) == [], row["user"]


def test_swapped_two_stage_winner_is_rejected(world):
    ref, out = world
    recs, _ = _outputs(out, "two-stage")
    for row in recs:
        user = row["user"]
        behavior = ref.behavior(user)
        order = ref.stage_one(behavior)
        for i, item in enumerate(row["items"]):
            # The members of the winner's run: its neighbours in stage-one
            # order sharing its group key.
            j = order.index(item)
            key = behavior[item][1]
            lo, hi = j, j
            while lo > 0 and behavior[order[lo - 1]][1] == key:
                lo -= 1
            while hi + 1 < len(order) and behavior[order[hi + 1]][1] == key:
                hi += 1
            run = order[lo : hi + 1]
            pref = ref.preference(user, run)
            losers = [p for p in run if pref[p] < pref[item] - 1e-6]
            if losers:
                bad = copy.deepcopy(row)
                bad["items"][i] = losers[0]
                bad["scores"][i] = behavior[losers[0]][0]
                problems = reference.check_two_stage(ref, user, bad)
                assert problems and "preference" in problems[0], problems
                return
    pytest.fail("no run with a strictly worse member in the small world")


def test_reordered_two_stage_winners_are_rejected(world):
    ref, out = world
    recs, _ = _outputs(out, "two-stage")
    bad = copy.deepcopy(recs[0])
    bad["items"][0], bad["items"][1] = bad["items"][1], bad["items"][0]
    assert reference.check_two_stage(ref, bad["user"], bad)


def test_duplicated_item_is_rejected(world):
    ref, out = world
    for method in ("two-stage", "rrf"):
        recs, _ = _outputs(out, method)
        bad = copy.deepcopy(recs)
        bad[0]["items"][1] = bad[0]["items"][0]
        assert any("twice" in p for p in reference.check_rows(ref, bad))


def test_perturbed_score_is_rejected(world):
    ref, out = world
    for method, check in (("two-stage", reference.check_two_stage), ("rrf", reference.check_rrf)):
        recs, _ = _outputs(out, method)
        bad = copy.deepcopy(recs[0])
        bad["scores"][3] = math.nextafter(bad["scores"][3], 0.0)
        assert check(ref, bad["user"], bad), method


def test_swapped_rrf_items_are_rejected(world):
    ref, out = world
    recs, _ = _outputs(out, "rrf")
    for row in recs:
        for i in range(len(row["items"]) - 1):
            if row["scores"][i] != row["scores"][i + 1]:
                bad = copy.deepcopy(row)
                bad["items"][i], bad["items"][i + 1] = bad["items"][i + 1], bad["items"][i]
                assert reference.check_rrf(ref, row["user"], bad)
                return
    pytest.fail("no adjacent pair with distinct fused scores")


def test_dropped_truth_item_is_rejected(world):
    ref, out = world
    rows = reference.read_jsonl(out / "truth.jsonl")
    bad = copy.deepcopy(rows)
    victim = next(row for row in bad if len(row["items"]) > 1)
    victim["items"].pop()
    assert reference.check_truth(ref, bad)


def test_edited_ndcg_is_rejected(world):
    ref, out = world
    recs, report = _outputs(out, "two-stage")
    bad = copy.deepcopy(report)
    bad["ndcg"]["10"] += 1e-6
    problems = reference.check_metrics(ref, recs, bad)
    assert problems and "ndcg@10" in problems[0]
