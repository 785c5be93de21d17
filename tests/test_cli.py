import dataclasses
import io
import json
import os
import pickle
import random
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import tvrec
from oracles import behavior_matrix_dicts, tensor_dicts
from tvrec import bundle
from tvrec.cli import _CONFIG_SECTIONS, EngineConfig, _prepared_manifest, load_config, main
from tvrec.datamodel import load_prepared
from tvrec.errors import ConfigError

SYNTH_CFG = {
    "n_users": 25,
    "n_channels": 4,
    "n_topics": 5,
    "weeks_train": 2,
    "weeks_test": 1,
    "rng_seed": 3,
}
T_SPLIT = 1_554_076_800 + 2 * 604_800


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth dataset plus an engine config file."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH_CFG))
    assert run(["synth", "--config", synth_cfg, "--out-dir", data]) == 0
    engine_cfg = root / "engine.json"
    engine_cfg.write_text(
        json.dumps(
            {
                "preprocessing": {"t_split": T_SPLIT, "train_days": 14, "test_days": 7},
                "ranking": {"k": 10},
                "evaluation": {"cutoffs": [5, 10]},
                "paths": {
                    "logs": str(data / "logs.jsonl"),
                    "programs": str(data / "programs.jsonl"),
                    "out_dir": str(root / "out"),
                },
                "seed": 7,
            }
        )
    )
    return root, engine_cfg


@pytest.fixture(scope="module")
def built(workspace):
    """The workspace after `prep` and `build`: its out dir holds truth.jsonl and model.pkl."""
    _, cfg = workspace
    assert run(["prep", "--config", cfg]) == 0
    assert run(["build", "--config", cfg]) == 0
    return workspace


def test_synth_writes_dataset_with_manifest(workspace):
    root, _ = workspace
    data = root / "data"
    assert (data / "logs.jsonl").exists()
    assert (data / "programs.jsonl").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["counts"]["accounts"] == 25
    assert manifest["config_hash"]


def test_prep_build_recommend_evaluate_round_trip(workspace, capsys):
    root, cfg = workspace
    out = root / "out"
    assert run(["prep", "--config", cfg]) == 0
    summary = json.loads((out / "prep_summary.json").read_text())
    assert {"d_train", "d_test", "i_train", "i_test", "users", "channels"} <= set(summary["summary"])
    assert summary["provenance"]["seed"] == 7
    truth_lines = (out / "truth.jsonl").read_text().splitlines()
    assert "_meta" in truth_lines[0]

    assert run(["build", "--config", cfg]) == 0
    assert (out / "model.pkl").exists()
    assert json.loads((out / "vocab.json").read_text())["vocabulary"]["tokens"]

    for method in ("behavior", "preference", "two-stage", "rrf", "rrf-weighted"):
        assert run(["recommend", "--config", cfg, "--method", method]) == 0
        rec_path = out / f"recs_{method}.jsonl"
        rows = [json.loads(line) for line in rec_path.read_text().splitlines()]
        assert "_meta" in rows[0]
        body = rows[1:]
        assert body and all(len(r["items"]) == len(r["scores"]) <= 10 for r in body)
        assert all(len(set(r["items"])) == len(r["items"]) for r in body)
        assert run(["evaluate", "--config", cfg, "--method", method]) == 0
        report = json.loads((out / f"metrics_{method}.json").read_text())["report"]
        assert set(report["ndcg"]) == {"5", "10"}
    capsys.readouterr()


def test_evaluate_reports_truth_users_without_a_rec_row(built, tmp_path, capsys):
    root, cfg = built
    full, cut = tmp_path / "recs.jsonl", tmp_path / "cut.jsonl"
    assert run(["recommend", "--config", cfg, "--method", "behavior", "--out", full]) == 0
    truth_rows = map(json.loads, (root / "out" / "truth.jsonl").read_text().splitlines()[1:])
    with_truth = {row["user"] for row in truth_rows if row["items"]}
    lines = full.read_text().splitlines()
    cut.write_text("\n".join([lines[0], *[line for line in lines if json.loads(line).get("user") in with_truth][:2]]))
    for rec, users, missing in ((full, len(with_truth), 0), (cut, 2, len(with_truth) - 2)):
        capsys.readouterr()
        assert run(["evaluate", "--config", cfg, "--rec", rec, "--out", tmp_path / "metrics.json"]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        report = json.loads((tmp_path / "metrics.json").read_text())["report"]
        assert (summary["users"], summary["missing"]) == (report["n_users"], report["n_missing"]) == (users, missing)
    assert len(with_truth) > 2


def test_recommend_is_deterministic_across_runs(built):
    root, cfg = built
    out = root / "out"
    a = root / "recs_a.jsonl"
    b = root / "recs_b.jsonl"
    assert run(["recommend", "--config", cfg, "--method", "two-stage", "--out", a]) == 0
    assert run(["recommend", "--config", cfg, "--method", "two-stage", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_reports_seconds_per_user(built):
    root, cfg = built
    assert run(["bench", "--config", cfg, "--method", "behavior,two-stage",
                "--users-sample", 5, "--reps", 2]) == 0
    doc = json.loads((root / "out" / "bench.json").read_text())
    assert set(doc["seconds_per_user"]) == {"behavior", "two-stage"}
    assert all(v > 0 for v in doc["seconds_per_user"].values())


def test_tune_writes_selected_hyperparameters(built):
    root, cfg = built
    assert run(["tune", "--config", cfg, "--dev-frac", 0.3,
                "--eta-grid", "40,60", "--xi-grid", "0:1:0.5", "--cutoff", 10]) == 0
    doc = json.loads((root / "out" / "tuned.json").read_text())
    assert doc["eta"] in (40, 60)
    assert doc["xi"] in (0.0, 0.5, 1.0)


def test_inspect_user_dumps_behavior_matrix(built, capsys):
    root, cfg = built
    truth_rows = [json.loads(l) for l in (root / "out" / "truth.jsonl").read_text().splitlines()[1:]]
    user = truth_rows[0]["user"]
    assert run(["inspect-user", "--config", cfg, "--user", user]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["user"] == user
    assert abs(sum(p for _, _, p in doc["entries"]) - 1.0) < 1e-9
    # The entries are the oracle's distribution, exactly, in (slot, channel) order.
    engine = load_config(str(cfg), {})
    prepared = load_prepared(root / "out" / "prepared.npz", _prepared_manifest(engine), engine.grid)
    want = behavior_matrix_dicts(tensor_dicts(prepared.cells), user)
    assert doc["entries"] == [[slot, channel, p] for (slot, channel), p in sorted(want.probs.items())]


def test_missing_input_exits_with_data_error(tmp_path):
    assert run(["prep", "--logs", tmp_path / "nope.jsonl",
                "--programs", tmp_path / "nope2.jsonl", "--t-split", T_SPLIT,
                "--out-dir", tmp_path]) == 3


def test_bad_config_value_exits_with_usage_error(workspace, tmp_path):
    root, cfg = workspace
    # k below the largest cutoff violates the config invariant
    assert run(["recommend", "--config", cfg, "--method", "behavior", "--k", 3]) == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ranking": {"strength": 11}}))
    assert run(["prep", "--config", bad]) == 2


def _bundle_arrays(path):
    """Every array of a bundle, in file order, the manifest decoded."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    arrays["manifest"] = json.loads(arrays["manifest"].tobytes())
    return arrays


def _write_arrays(path, arrays):
    """Write what :func:`_bundle_arrays` read, in its order."""
    doc = json.dumps(arrays["manifest"], sort_keys=True).encode()
    with open(path, "wb") as fh:
        np.savez(fh, **{**arrays, "manifest": np.frombuffer(doc, dtype=np.uint8)})


def _without_users(arrays):
    """A consistent bundle of the same candidates without a single user."""
    out = dict(arrays, manifest={**arrays["manifest"], "shapes": {**arrays["manifest"]["shapes"], "users": 0}})
    for key in ("users_off", "behavior_ptr", "global_ptr", "slots_ptr", "slot_vecs_ptr", "truth_ptr"):
        out[key] = arrays[key][:1]
    for key in ("users", "behavior_col", "behavior_val", "global_col", "global_val", "slots", "slot_vecs_col",
                "slot_vecs_val", "truth_rows"):
        out[key] = arrays[key][:0]
    return out


def _no_truth_argv(case, tmp_path):
    """Inputs in which ``u1`` is in both halves, but its only test log is on
    a program that started before the split, so ``u1`` has no truth; ``u2``
    has one. With ``prep no user in both halves``, ``u3`` alone has a test log."""
    day = 86_400
    programs = [("pa", T_SPLIT - 7 * day), ("pb", T_SPLIT - 3_600), ("pc", T_SPLIT + 3_600)]
    logs = [("u1", "pa", T_SPLIT - 7 * day + 60), ("u2", "pa", T_SPLIT - 7 * day + 60)]
    if case.startswith("tune"):
        logs += [("u1", "pb", T_SPLIT + 60), ("u2", "pc", T_SPLIT + 3_660)]
    else:
        logs += [("u3", "pc", T_SPLIT + 3_660)]
    data = tmp_path / "data"
    data.mkdir()
    (data / "programs.jsonl").write_text("".join(
        json.dumps({"program": p, "channel": "c1", "start": t, "end": t + 3_000, "text": f"show {p}"}) + "\n"
        for p, t in programs
    ))
    (data / "logs.jsonl").write_text("".join(
        json.dumps({"user": u, "program": p, "channel": "c1", "t": t, "dt": 1_200}) + "\n" for u, p, t in logs
    ))
    flags = ["--logs", data / "logs.jsonl", "--programs", data / "programs.jsonl", "--t-split", T_SPLIT,
             "--out-dir", tmp_path / "out"]
    if case.startswith("prep"):
        return ["prep", *flags]
    assert run(["prep", *flags]) == 0
    assert run(["build", *flags]) == 0
    return ["tune", "--out-dir", tmp_path / "out", "--dev-frac", 0.5, "--seed", 1,
            "--eta-grid", 1, "--xi-grid", 0.5]


def _malformed_argv(case, cfg, tmp_path):
    """The argv of one malformed-input case; its bad file goes in tmp_path."""
    if case in ("tune no dev user with truth", "prep no user in both halves"):
        return _no_truth_argv(case, tmp_path)
    if case.endswith("seed negative"):
        # Refused as a config error before the seed is drawn from.
        if case.startswith("synth"):
            return ["synth", "--seed", -1, "--out-dir", tmp_path / "data"]
        engine = json.loads(cfg.read_text())
        bad = tmp_path / "engine.json"
        bad.write_text(json.dumps({**engine, "seed": -3}))
        return [case.split()[0], "--config", bad, "--out", tmp_path / "out.json"]
    if case in ("bench bundle without users", "tune bundle without users"):
        model = tmp_path / "model.pkl"
        _write_arrays(model, _without_users(_bundle_arrays(cfg.parent / "out" / "model.pkl")))
        return [case.split()[0], "--config", cfg, "--model", model, "--out", tmp_path / "out.json"]
    good_rows = '{"_meta": {}}\n{"user": "u1", "items": ["p1"], "scores": [1.0]}\n'
    bad_rows = good_rows + "{not json\n"
    if case == "rec file user without truth":
        rec = tmp_path / "recs.jsonl"
        truth = tmp_path / "truth.jsonl"
        rec.write_text(good_rows)
        truth.write_text('{"user": "u2", "items": ["p1"]}\n{"user": "u1", "items": []}\n')
        return ["evaluate", "--rec", rec, "--truth", truth, "--out-dir", tmp_path]
    if case in ("rec line not JSON", "truth line not JSON"):
        rec = tmp_path / "recs.jsonl"
        truth = tmp_path / "truth.jsonl"
        rec.write_text(bad_rows if case.startswith("rec") else good_rows)
        truth.write_text(bad_rows if case.startswith("truth") else good_rows)
        return ["evaluate", "--rec", rec, "--truth", truth, "--out-dir", tmp_path]
    if case.startswith(("rec row", "truth row")):
        rec = tmp_path / "recs.jsonl"
        truth = tmp_path / "truth.jsonl"
        bad = {"rec row not an object": '["u1", ["p1"], [1.0]]\n',
               "rec row lacks scores": '{"user": "u1", "items": ["p1"]}\n',
               "truth row lacks items": '{"user": "u1"}\n',
               "rec row items not a list": '{"user": "u1", "items": 5, "scores": [1.0]}\n',
               "rec row user a list": '{"user": ["x"], "items": ["p1"], "scores": [1.0]}\n',
               "rec row item not a string": '{"user": "u1", "items": [7], "scores": [1.0]}\n',
               "rec row score a string": '{"user": "u1", "items": ["p1"], "scores": ["1.0"]}\n',
               "rec row scores shorter than items": '{"user": "u1", "items": ["p1", "p2"], "scores": [1.0]}\n',
               "truth row items a string": '{"user": "u1", "items": "abc"}\n',
               "rec row repeats an item": '{"user": "u2", "items": ["a", "a", "b"], "scores": [3, 2, 1]}\n',
               "rec row repeats a user": '{"user": "u1", "items": ["p2"], "scores": [1.0]}\n',
               "truth row repeats a user": '{"user": "u1", "items": ["p2"]}\n'}[case]
        rec.write_text(good_rows + (bad if case.startswith("rec") else ""))
        truth.write_text(good_rows + (bad if case.startswith("truth") else ""))
        return ["evaluate", "--rec", rec, "--truth", truth, "--out-dir", tmp_path]
    if case.startswith("tune"):
        # The missing model would exit 3: the flags are checked before it loads.
        # Each grid value must pass the rule that `eta`/`xi` in a config pass.
        flag, value = {"tune dev-frac above 1": ("--dev-frac", 2),
                       "tune dev-frac 0": ("--dev-frac", 0),
                       "tune cutoff 0": ("--cutoff", 0),
                       "tune eta grid not a number": ("--eta-grid", "abc"),
                       "tune eta grid up to inf": ("--eta-grid", "1:inf"),
                       "tune eta grid negative": ("--eta-grid", "-5"),
                       "tune xi grid above 1": ("--xi-grid", "2"),
                       "tune eta grid nan": ("--eta-grid", "nan")}[case]
        return ["tune", "--config", cfg, "--model", tmp_path / "missing.pkl", flag, value]
    if case == "cutoffs flag repeats":
        rec = tmp_path / "recs.jsonl"
        rec.write_text(good_rows)
        return ["evaluate", "--rec", rec, "--truth", rec, "--out-dir", tmp_path, "--cutoffs", "10,10"]
    if case == "rec line nested too deep":
        rec = tmp_path / "recs.jsonl"
        rec.write_text(good_rows + "[" * 100_000 + "\n")
        return ["evaluate", "--rec", rec, "--truth", rec, "--out-dir", tmp_path]
    if case in ("rec file not UTF-8", "truth file not UTF-8"):
        rec = tmp_path / "recs.jsonl"
        truth = tmp_path / "truth.jsonl"
        rec.write_bytes(good_rows.encode() + (b'{"user": "\xff"}\n' if case.startswith("rec") else b""))
        truth.write_bytes(good_rows.encode() + (b'{"user": "\xff"}\n' if case.startswith("truth") else b""))
        return ["evaluate", "--rec", rec, "--truth", truth, "--out-dir", tmp_path]
    if case.startswith(("logs ", "programs ")):
        # One bad line is skipped and counted; mostly bad lines are refused.
        data = cfg.parent / "data"
        inputs = {name: (data / f"{name}.jsonl").read_bytes() for name in ("logs", "programs")}
        name = case.split()[0]
        bad = b"[" * 100_000 + b"\n" if "nested" in case else b'{"user": "\xff"}\n'
        first_line = inputs[name][: inputs[name].index(b"\n") + 1]
        inputs[name] = bad * 3 + first_line if "mostly" in case else inputs[name] + bad
        for key, blob in inputs.items():
            (tmp_path / f"{key}.jsonl").write_bytes(blob)
        return ["prep", "--config", cfg, "--logs", tmp_path / "logs.jsonl",
                "--programs", tmp_path / "programs.jsonl", "--out-dir", tmp_path / "out"]
    if case.startswith("synth config"):
        bad = tmp_path / "synth.json"
        bad.write_bytes({"synth config not JSON": b'{"n_users": 5,',
                         "synth config root not an object": b"[5]",
                         "synth config not UTF-8": b'{"n_users": 5, "\xff": 1}',
                         "synth config n_users a float": b'{"n_users": 2.5}',
                         "synth config n_channels a whole float": b'{"n_channels": 2.0}',
                         "synth config rng_seed a float": b'{"rng_seed": 1.5}',
                         "synth config rng_seed negative": b'{"rng_seed": -5}',
                         "synth config n_users a bool": b'{"n_users": true}',
                         "synth config n_slots a whole float": b'{"n_slots": 672.0}',
                         "synth config n_slots 0": b'{"n_slots": 0}',
                         "synth config target NaN": b'{"programs_per_slot_target": NaN}'}[case])
        return ["synth", "--config", bad, "--out-dir", tmp_path / "data"]
    if case.startswith(("train days", "test days")):
        which, _, value = case.split()
        return ["prep", "--config", cfg, f"--{which}-days", value, "--out-dir", tmp_path / "out"]
    if case.startswith("config file") or case == "config root not an object":
        bad = tmp_path / "engine.json"
        if case == "config root not an object":
            bad.write_text("[5]")
        if case == "config file not UTF-8":
            bad.write_bytes(b'{"seed": 7, "\xff": 1}')
        if case == "config file nested too deep":
            bad.write_text("[" * 100_000)
        return ["prep", "--config", bad]
    if case.startswith("config value"):
        value = {"config value str for int": {"ranking": {"k": "30"}},
                 "config value bool for int": {"ranking": {"k": True}},
                 "config value str for float": {"ranking": {"eta": "60"}},
                 "config value str seed": {"seed": "7"},
                 "config value unknown mode": {"ranking": {"mode": "hourly"}},
                 "config value repeated cutoffs": {"evaluation": {"cutoffs": [10, 10]}}}[case]
        bad = tmp_path / "engine.json"
        bad.write_text(json.dumps(value))
        return ["prep", "--config", bad]
    if case.startswith("bundle"):
        # Damaged copies of the bundle that `build` wrote.
        built_model = cfg.parent / "out" / "model.pkl"
        model = tmp_path / "model.pkl"
        if case == "bundle span_ptr short":
            arrays = _bundle_arrays(built_model)
            arrays["span_ptr"] = arrays["span_ptr"][:-5]
            _write_arrays(model, arrays)
        else:
            blob = built_model.read_bytes()
            model.write_bytes({"bundle cut short": blob[: len(blob) // 2],
                               "bundle is text": b"garbage",
                               "bundle empty": b""}[case])
        return ["recommend", "--config", cfg, "--model", model, "--method", "behavior",
                "--out", tmp_path / "recs.jsonl"]
    flag = {"bench zero users": "--users-sample", "bench zero reps": "--reps"}[case]
    return ["bench", "--config", cfg, "--method", "behavior", flag, 0]


@pytest.mark.parametrize(
    "case, code",
    [
        ("rec line not JSON", 3),
        ("truth line not JSON", 3),
        ("synth config not JSON", 2),
        ("synth config root not an object", 2),
        ("synth config not UTF-8", 2),
        ("synth config n_users a float", 2),
        ("synth config n_channels a whole float", 2),
        ("synth config rng_seed a float", 2),
        ("synth config rng_seed negative", 2),
        ("synth seed negative", 2),
        ("bench seed negative", 2),
        ("tune seed negative", 2),
        ("synth config n_users a bool", 2),
        ("synth config n_slots a whole float", 2),
        ("synth config n_slots 0", 2),
        ("synth config target NaN", 2),
        ("train days nan", 2),
        ("train days 1e308", 2),
        ("test days inf", 2),
        ("train days 1e-9", 2),
        ("config root not an object", 2),
        ("config file missing", 3),
        ("config file not UTF-8", 2),
        ("config file nested too deep", 2),
        ("logs line nested too deep", 0),
        ("rec line nested too deep", 3),
        ("logs line not UTF-8", 0),
        ("logs lines mostly not UTF-8", 3),
        ("programs line not UTF-8", 0),
        ("programs lines mostly not UTF-8", 3),
        ("rec file not UTF-8", 3),
        ("truth file not UTF-8", 3),
        ("config value str for int", 2),
        ("config value bool for int", 2),
        ("config value str for float", 2),
        ("config value str seed", 2),
        ("config value unknown mode", 2),
        ("bench zero users", 2),
        ("bench zero reps", 2),
        ("rec row not an object", 3),
        ("rec row lacks scores", 3),
        ("truth row lacks items", 3),
        ("rec row items not a list", 3),
        ("rec row user a list", 3),
        ("rec row item not a string", 3),
        ("rec row score a string", 3),
        ("rec row scores shorter than items", 3),
        ("truth row items a string", 3),
        ("rec row repeats an item", 3),
        ("rec row repeats a user", 3),
        ("truth row repeats a user", 3),
        ("rec file user without truth", 3),
        ("config value repeated cutoffs", 2),
        ("cutoffs flag repeats", 2),
        ("bundle cut short", 3),
        ("bundle is text", 3),
        ("bundle empty", 3),
        ("bundle span_ptr short", 3),
        ("bench bundle without users", 3),
        ("tune bundle without users", 3),
        ("tune no dev user with truth", 3),
        ("prep no user in both halves", 3),
        ("tune dev-frac above 1", 2),
        ("tune dev-frac 0", 2),
        ("tune cutoff 0", 2),
        ("tune eta grid not a number", 2),
        ("tune eta grid up to inf", 2),
        ("tune eta grid negative", 2),
        ("tune xi grid above 1", 2),
        ("tune eta grid nan", 2),
    ],
)
def test_malformed_input_exits_with_documented_code(case, code, built, tmp_path, capsys):
    _, cfg = built
    assert run(_malformed_argv(case, cfg, tmp_path)) == code
    assert "internal error" not in capsys.readouterr().err


def test_repeated_user_error_names_both_lines(tmp_path, capsys):
    rec = tmp_path / "recs.jsonl"
    rec.write_text('{"_meta": {}}\n{"user": "u1", "items": ["b"], "scores": [1.0]}\n'
                   '{"user": "u1", "items": ["a"], "scores": [1.0]}\n')
    assert run(["evaluate", "--rec", rec, "--truth", rec, "--out-dir", tmp_path]) == 3
    assert "recs.jsonl:3: user 'u1' already has a row, on line 2" in capsys.readouterr().err


def test_config_values_are_type_checked():
    assert load_config(None, {"train_days": 14, "eta": 60, "cutoffs": (5, 10), "k": 10}).eta == 60
    for key, value in (("k", True), ("t_split", 1.5), ("cutoffs", (5, "10")), ("method", 3)):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})


def test_removed_config_keys_are_rejected(tmp_path):
    path = tmp_path / "c.json"
    for doc, name in (({"encoder": {"min_df": 1}}, "encoder"), ({"preprocessing": {"binarize": False}}, "binarize")):
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"unknown .*'{name}'"):
            load_config(str(path), {})


def test_config_sections_declare_every_field_once():
    # Every EngineConfig field is settable from a config file, and every key sets a field.
    keys = [key for fields in _CONFIG_SECTIONS.values() for key in fields] + ["seed"]
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in dataclasses.fields(EngineConfig)}


def _python_m_env():
    src = str(Path(tvrec.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_bundle_built_by_python_m_loads_in_process(workspace, tmp_path, capsys):
    # `python -m tvrec.cli` runs the module as __main__; the bundle it writes
    # must load in a process that imported tvrec.cli.
    _, cfg = workspace
    model = tmp_path / "model.pkl"
    assert run(["prep", "--config", cfg, "--out-dir", tmp_path]) == 0
    build = subprocess.run(
        [sys.executable, "-m", "tvrec.cli", "build", "--config", str(cfg),
         "--out-dir", str(tmp_path), "--model", str(model)],
        env=_python_m_env(), capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    assert run(["recommend", "--config", cfg, "--model", model, "--method", "behavior",
                "--out", tmp_path / "recs.jsonl"]) == 0
    capsys.readouterr()


def test_bundle_bytes_do_not_depend_on_hash_seed(workspace, tmp_path, capsys):
    _, cfg = workspace
    blobs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        assert run(["prep", "--config", cfg, "--out-dir", out]) == 0
        build = subprocess.run(
            [sys.executable, "-m", "tvrec.cli", "build", "--config", str(cfg), "--out-dir", str(out)],
            env={**_python_m_env(), "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True,
        )
        assert build.returncode == 0, build.stderr
        blobs.append((out / "model.pkl").read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def _damage_prepared(case, root, cfg, out):
    """Run `prep` into ``out``, then make its prepared file unfit for `build`
    in the way ``case`` names; returns the flags `build` runs with."""
    data = root / "data"
    flags = ["--out-dir", out]
    if case == "inputs edited after prep":
        for name in ("logs", "programs"):
            (out.parent / f"{name}.jsonl").write_bytes((data / f"{name}.jsonl").read_bytes())
        flags += ["--logs", out.parent / "logs.jsonl", "--programs", out.parent / "programs.jsonl"]
    if case == "prepared with another n_slots":
        doc = json.loads(cfg.read_text())
        other = out.parent / "engine.json"
        other.write_text(json.dumps({**doc, "grid": {"n_slots": 168}}))
        assert run(["prep", "--config", other, *flags]) == 0
    elif case != "no prepared file":
        extra = ["--t-split", T_SPLIT - 86_400] if case == "prepared with another t_split" else []
        assert run(["prep", "--config", cfg, *flags, *extra]) == 0
    prepared = out / "prepared.npz"
    if case == "inputs edited after prep":
        with open(out.parent / "logs.jsonl", "ab") as fh:
            fh.write(b"\n")
    if case == "prepared file truncated":
        blob = prepared.read_bytes()
        prepared.write_bytes(blob[: len(blob) // 2])
    if "offset out of range" in case or case == "prepared user without cells":
        with np.load(prepared) as npz:
            arrays = dict(npz)
        key = {"prepared name offset out of range": "users_off"}.get(case, "cell_ptr")
        arrays[key] = arrays[key].copy()
        if case == "prepared user without cells":
            arrays[key][1] = arrays[key][0]
        else:
            arrays[key][-2] = arrays[key][-1] + 1
        with open(prepared, "wb") as fh:
            np.savez(fh, **arrays)
    return flags


@pytest.mark.parametrize(
    "case",
    [
        "no prepared file",
        "inputs edited after prep",
        "prepared with another t_split",
        "prepared with another n_slots",
        "prepared file truncated",
        "prepared offset out of range",
        "prepared name offset out of range",
        "prepared user without cells",
    ],
)
def test_build_refuses_a_missing_stale_or_damaged_prepared_file(case, workspace, tmp_path, capsys):
    root, cfg = workspace
    flags = _damage_prepared(case, root, cfg, tmp_path / "out")
    capsys.readouterr()
    assert run(["build", "--config", cfg, *flags]) == 3
    err = capsys.readouterr().err
    assert "run `prep`" in err and "internal error" not in err
    assert not (tmp_path / "out" / "model.pkl").exists()


def test_build_reads_what_prep_wrote_without_parsing(workspace, tmp_path, monkeypatch, capsys):
    # `build` works from prepared.npz alone: the parsers and `prepare` are not called.
    import tvrec.cli as cli

    _, cfg = workspace
    out = tmp_path / "out"
    assert run(["prep", "--config", cfg, "--out-dir", out]) == 0
    for name in ("parse_logs", "parse_programs", "prepare"):
        monkeypatch.setattr(cli, name, None)
    assert run(["build", "--config", cfg, "--out-dir", out]) == 0
    assert (out / "model.pkl").exists()
    capsys.readouterr()


def test_importing_the_cli_does_not_load_scipy():
    # Only evaluate.paired_ttest needs scipy; no pipeline command should pay for loading it.
    probe = "import sys, tvrec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=_python_m_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_one_build_serves_both_scoring_modes(built, tmp_path, capsys):
    _, cfg = built
    for mode in ("global", "time-aware"):
        assert run(["recommend", "--config", cfg, "--method", "two-stage", "--mode", mode,
                    "--out", tmp_path / f"recs_{mode}.jsonl"]) == 0
    capsys.readouterr()


class _Trap:
    """Unpickling this makes the directory ``path``: proof that a loader ran it."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (str(self.path),)


def test_old_layout_bundle_exits_with_data_error(built, tmp_path, capsys):
    # A pickled bundle, as earlier versions wrote, is refused without being
    # unpickled, and so is a bundle of another schema version.
    _, cfg = built
    trap = tmp_path / "unpickled"
    pickled = tmp_path / "pickled.pkl"
    pickled.write_bytes(pickle.dumps({"provenance": {}, "cand": _Trap(trap), "behavior": {}, "truths": {}}))
    arrays = _bundle_arrays(cfg.parent / "out" / "model.pkl")
    other_schema = tmp_path / "schema.pkl"
    _write_arrays(other_schema, {**arrays, "manifest": {**arrays["manifest"], "schema": 0}})
    for model in (pickled, other_schema):
        assert run(["recommend", "--config", cfg, "--model", model, "--method", "behavior",
                    "--out", tmp_path / "recs.jsonl"]) == 3
        assert "rebuild with `build`" in capsys.readouterr().err
    assert not trap.exists()


def _mutants(blob, arrays, rng, bounds, names):
    """Damaged copies of a file of arrays, each ``(what, bytes or arrays)``.
    ``bounds`` maps arrays of codes to the ``[lo, hi)`` range each code must
    lie in; ``names`` are the keys of the file's name tables."""
    members = zipfile.ZipFile(io.BytesIO(blob)).infolist()
    for _ in range(25):
        cut = rng.randrange(len(blob))
        yield f"truncated at byte {cut}", blob[:cut]
        # A byte of an array's stored data: the archive's checksum no longer holds.
        info = rng.choice(members)
        name_len, extra_len = np.frombuffer(blob, dtype="<u2", count=2, offset=info.header_offset + 26)
        at = info.header_offset + 30 + int(name_len) + int(extra_len) + rng.randrange(info.file_size)
        yield f"byte {at} of {info.filename} flipped", blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :]
        key = rng.choice([k for k in arrays if k != "manifest"])
        yield f"{key} dropped", {k: v for k, v in arrays.items() if k != key}
        other = np.float32 if arrays[key].dtype.kind != "f" else np.int64
        yield f"{key} as {np.dtype(other)}", {**arrays, key: arrays[key].astype(other)}
        key = rng.choice([k for k in arrays if k.endswith(("_ptr", "_off")) and len(arrays[k]) > 2])
        ptr = arrays[key].copy()
        j = rng.randrange(1, len(ptr) - 1)
        ptr[j] = ptr[j - 1] - 1
        yield f"{key}[{j}] below {key}[{j - 1}]", {**arrays, key: ptr}
        key = rng.choice(sorted(bounds))
        codes = arrays[key].copy()
        lo, hi = bounds[key]
        codes[rng.randrange(len(codes))] = lo - 1 if lo > 0 and rng.random() < 0.5 else hi
        yield f"{key} out of range", {**arrays, key: codes}
        key = rng.choice(names)
        yield f"{key} emptied", {**arrays, key: arrays[key][:0]}
        yield f"{key} and offsets emptied", {
            **arrays, key: arrays[key][:0], f"{key}_off": arrays[f"{key}_off"][:1]
        }


def test_damaged_bundles_exit_with_data_error(built, tmp_path, capsys):
    # A seeded mutation check of the bundle loader: every damaged copy is a
    # data error (exit 3), never an internal one (exit 4).
    _, cfg = built
    path = cfg.parent / "out" / "model.pkl"
    blob, arrays = path.read_bytes(), _bundle_arrays(path)
    shapes = arrays["manifest"]["shapes"]
    n_cells = shapes["slots"] * shapes["channels"]
    bounds = {"span_flat": (0, n_cells), "behavior_col": (0, n_cells), "global_col": (0, shapes["dims"]),
              "slot_vecs_col": (0, shapes["dims"]), "embeddings_col": (0, shapes["dims"]),
              "truth_rows": (0, shapes["candidates"]), "slots": (1, shapes["slots"] + 1)}
    mutants = _mutants(blob, arrays, random.Random(20_261_019), bounds, ("users", "ids", "channels"))
    model = tmp_path / "model.pkl"
    for n, (what, mutant) in enumerate(mutants):
        if isinstance(mutant, bytes):
            model.write_bytes(mutant)
        else:
            _write_arrays(model, mutant)
        method = ("two-stage", "rrf", "behavior")[n % 3]
        code = run(["recommend", "--config", cfg, "--model", model, "--method", method,
                    "--out", tmp_path / "recs.jsonl"])
        err = capsys.readouterr().err
        assert code == 3 and "rebuild with `build`" in err, f"{what}: exit {code}: {err}"


def test_bundle_weights_not_above_zero_exit_with_data_error(built, tmp_path, capsys):
    # Preference scores are exact and ordered without NaN only if every
    # embedding, global and slot-vector weight is > 0.
    _, cfg = built
    arrays = _bundle_arrays(cfg.parent / "out" / "model.pkl")
    model = tmp_path / "model.pkl"
    for block in ("embeddings", "global", "slot_vecs"):
        for weight in (0.0, -0.5):
            val = arrays[f"{block}_val"].copy()
            val[len(val) // 2] = weight
            _write_arrays(model, {**arrays, f"{block}_val": val})
            code = run(["recommend", "--config", cfg, "--model", model, "--method", "rrf",
                        "--out", tmp_path / "recs.jsonl"])
            err = capsys.readouterr().err
            assert code == 3 and f"bad {block} weights" in err, f"{block} weight {weight}: exit {code}: {err}"


def test_bundle_repeated_or_unsorted_cells_exit_with_data_error(built, tmp_path, capsys):
    # A user's behavior row lists each cell once, ascending, and a span lists
    # each cell once: the rankers take a maximum over those cells, and a
    # repeated cell would have two values.
    _, cfg = built
    arrays = _bundle_arrays(cfg.parent / "out" / "model.pkl")
    ptr, col = arrays["behavior_ptr"], arrays["behavior_col"]
    a = int(ptr[np.flatnonzero(np.diff(ptr) >= 2)[0]])
    repeated, swapped = col.copy(), col.copy()
    repeated[a + 1] = col[a]
    swapped[a : a + 2] = col[a + 1], col[a]
    span_ptr, flat = arrays["span_ptr"], arrays["span_flat"].copy()
    b = int(span_ptr[np.flatnonzero(np.diff(span_ptr) >= 2)[0]])
    flat[b + 1] = flat[b]
    cases = [("behavior_col", repeated, "bad behavior cells"), ("behavior_col", swapped, "bad behavior cells"),
             ("span_flat", flat, "bad span cells")]
    model = tmp_path / "model.pkl"
    for key, damaged, problem in cases:
        _write_arrays(model, {**arrays, key: damaged})
        for method in ("behavior", "two-stage", "rrf"):
            code = run(["recommend", "--config", cfg, "--model", model, "--method", method,
                        "--out", tmp_path / "recs.jsonl"])
            err = capsys.readouterr().err
            assert code == 3 and problem in err, f"{key} {method}: exit {code}: {err}"


def test_damaged_prepared_files_exit_with_data_error(built, tmp_path, capsys):
    # A seeded mutation check of `build`'s read path: every damaged copy of
    # the prepared file is a data error (exit 3), never an internal one.
    _, cfg = built
    path = cfg.parent / "out" / "prepared.npz"
    blob, arrays = path.read_bytes(), _bundle_arrays(path)
    n = {key: len(arrays[f"{key}_off"]) - 1 for key in ("programs", "channels")}
    bounds = {"cell_program": (0, n["programs"]), "cell_channel": (0, n["channels"]), "cell_slot": (1, 673),
              "cell_count": (1, 2**63 - 1), "test_program": (0, n["programs"]),
              "test_channel": (0, n["channels"]), "truth_program": (0, n["programs"])}
    rng = random.Random(20_261_020)
    mutants = _mutants(blob, arrays, rng, bounds, ("users", "programs", "texts", "channels"))
    out = tmp_path / "out"
    out.mkdir()
    for what, mutant in mutants:
        if isinstance(mutant, bytes):
            (out / "prepared.npz").write_bytes(mutant)
        else:
            _write_arrays(out / "prepared.npz", mutant)
        code = run(["build", "--config", cfg, "--out-dir", out])
        err = capsys.readouterr().err
        assert code == 3 and "run `prep` again" in err, f"{what}: exit {code}: {err}"
    # Counts each in range whose sum would wrap in int64.
    counts = arrays["cell_count"].copy()
    counts[:2] = 2**62
    _write_arrays(out / "prepared.npz", {**arrays, "cell_count": counts})
    assert run(["build", "--config", cfg, "--out-dir", out]) == 3
    assert "bad cell counts" in capsys.readouterr().err
    # A code moved to another value in range passes the file's checks; `build`
    # then either models it (exit 0) or refuses what it makes of it (exit 3).
    for _ in range(40):
        key = rng.choice(sorted(bounds))
        codes = arrays[key].copy()
        codes[rng.randrange(len(codes))] = rng.randrange(*bounds[key])
        _write_arrays(out / "prepared.npz", {**arrays, key: codes})
        code = run(["build", "--config", cfg, "--out-dir", out])
        err = capsys.readouterr().err
        assert code in (0, 3) and "internal error" not in err, f"{key} changed in range: exit {code}: {err}"


def test_bundle_module_reproduces_the_built_bytes(built):
    # `build` and tvrec.bundle are one path: the bundle `build` wrote dumps
    # back to its own bytes, and so does one built from prepared.npz.
    _, cfg = built
    engine = load_config(str(cfg), {})
    path = Path(engine.model_path)
    written = path.read_bytes()
    fh = io.BytesIO()
    bundle.dump(fh, bundle.load(path))
    assert fh.getvalue() == written
    prepared = load_prepared(Path(engine.out_dir) / "prepared.npz", _prepared_manifest(engine), engine.grid)
    fh = io.BytesIO()
    bundle.dump(fh, bundle.build(prepared, engine.grid, engine.provenance())[0])
    assert fh.getvalue() == written


def test_build_writes_the_bundle_where_the_benchmark_reads_it(built):
    # perfbench/run.py measures bundle_mb at <out_dir>/model.pkl.
    root, cfg = built
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    assert '(out / "model.pkl")' in bench.read_text(encoding="utf-8")
    assert load_config(str(cfg), {}).model_path == str(root / "out" / "model.pkl")
    with np.load(root / "out" / "model.pkl", allow_pickle=False) as npz:
        assert "manifest" in npz.files


def test_inspect_unknown_user_exits_with_data_error(built, capsys):
    _, cfg = built
    assert run(["inspect-user", "--config", cfg, "--user", "no-such-user"]) == 3
    assert "no-such-user" in capsys.readouterr().err


def test_unknown_method_rejected_by_parser(workspace, capsys):
    root, cfg = workspace
    for flag, value in (("--method", "magic"), ("--mode", "hourly")):
        with pytest.raises(SystemExit) as err:
            run(["recommend", "--config", cfg, flag, value])
        assert err.value.code == 2
    capsys.readouterr()


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, {"t_split": 123, "k": 40})
    assert cfg.k == 40 and cfg.t_split == 123
    assert cfg.n_slots == 672
    assert cfg.min_duration_secs == 900
    assert cfg.train_days == 90 and cfg.test_days == 7
    assert cfg.cutoffs == (10, 20, 30)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n_slots": 168}, "seed": 5}))
    cfg2 = load_config(str(path), {"seed": None})
    assert cfg2.n_slots == 168 and cfg2.seed == 5


def test_engine_config_hash_is_stable_and_sensitive():
    a = EngineConfig(t_split=1)
    b = EngineConfig(t_split=1)
    c = EngineConfig(t_split=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # File locations are not part of the semantic config: moving the inputs
    # or outputs must not change the provenance embedded in artifacts.
    moved = EngineConfig(
        t_split=1,
        logs="elsewhere/logs.jsonl",
        programs="elsewhere/programs.jsonl",
        out_dir="elsewhere/out",
        model="elsewhere/model.pkl",
    )
    assert moved.config_hash() == a.config_hash()
    assert EngineConfig(t_split=1, k=40).config_hash() != a.config_hash()
    assert EngineConfig(t_split=1, n_slots=168).config_hash() != a.config_hash()
    assert EngineConfig(t_split=1, seed=1).config_hash() != a.config_hash()
