"""Guard for the benchmark's traced harness (perfbench/traced.py).

The harness wraps tvrec functions by name, calls `two_stage` with five
positional arguments, and counts parsed log lines as `len(logs) + skipped`
from what `parse_logs` returns. A renamed or deleted function, or a return
value without a length, would only surface as a crash of a traced benchmark
run, and a function called through a name the harness does not rebind would
read 0 s in its per-layer metric, so these checks keep both visible here. The harness file is loaded by path
and only read.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tvrec import cli, datamodel, ranker, synth

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_tvrec_callable(traced):
    missing = [
        f"{mod_name}.{name}"
        for mod_name, names in traced.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tvrec.{mod_name}"), name, None))
    ]
    assert not missing, f"traced harness wraps names tvrec no longer has: {missing}"


def test_two_stage_binds_the_harness_positional_call():
    params = list(inspect.signature(ranker.two_stage).parameters)
    assert params[:5] == ["bm", "model", "cand", "k", "stats"]
    inspect.signature(ranker.two_stage).bind("bm", "model", "cand", 30, ranker.TwoStageStats())
    assert ranker.TwoStageStats().preference_evals == 0


def test_parse_logs_result_counts_every_non_blank_line(traced):
    valid = '{"user":"u1","program":"p9","channel":"c3","t":1554076800,"dt":1200}'
    lines = [valid, "", "{not json", "  ", valid, '{"user": 1}', "\t", valid, '{"dt": -1}', valid, valid]
    tracer = traced.Tracer()
    parse_logs = tracer._wrapper("datamodel.parse_logs", datamodel.parse_logs, ranker)
    logs, skipped = parse_logs(lines)
    assert len(logs) == 5 and skipped == 3
    assert tracer.counts["datamodel.log_lines"] == sum(1 for line in lines if line.strip())


def test_traced_run_spans_every_model_building_stage(tmp_path, capsys):
    # The harness rebinds names only in the tvrec modules loaded when it
    # installs; a stage called through any other name would record no span.
    data, out = tmp_path / "data", tmp_path / "out"
    synth_cfg = tmp_path / "synth.json"
    shape = {"n_users": 12, "n_channels": 3, "n_topics": 4, "weeks_train": 2, "weeks_test": 1, "rng_seed": 5}
    synth_cfg.write_text(json.dumps(shape))
    assert cli.main(["synth", "--config", str(synth_cfg), "--out-dir", str(data)]) == 0
    capsys.readouterr()
    t_split = synth.SynthConfig(weeks_train=2).t_split
    inputs = ["--logs", str(data / "logs.jsonl"), "--programs", str(data / "programs.jsonl"), "--out-dir", str(out)]
    split = ["--t-split", str(t_split), "--train-days", "14", "--test-days", "7"]
    plan = {
        "src": str(ROOT / "src"),
        "steps": [["prep", *inputs, *split], ["build", *inputs, *split], ["recommend", *inputs]],
        "trace": True,
        "spans": str(tmp_path / "spans.jsonl"),
        "summary": str(tmp_path / "summary.json"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    done = subprocess.run([sys.executable, str(TRACED), str(plan_path)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    steps = json.loads((tmp_path / "summary.json").read_text())["steps"]
    assert [step["rc"] for step in steps] == [0, 0, 0], steps
    with open(tmp_path / "spans.jsonl", encoding="utf-8") as fh:
        names = {json.loads(line)["name"] for line in fh}
    stages = {
        "textenc.fit",
        "textenc.encode",
        "preference.build",
        "behavior.behavior_matrix",
        "ranker.build_candidates",
        "ranker.build_item_index",
    }
    assert stages <= names, f"no span for {sorted(stages - names)}"
