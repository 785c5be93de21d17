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


def _synth_inputs(tmp_path, capsys, n_users=12):
    """A small synth dataset; returns the CLI flags that point at it."""
    data, out = tmp_path / "data", tmp_path / "out"
    synth_cfg = tmp_path / "synth.json"
    shape = {"n_users": n_users, "n_channels": 3, "n_topics": 4, "weeks_train": 2, "weeks_test": 1, "rng_seed": 5}
    synth_cfg.write_text(json.dumps(shape))
    assert cli.main(["synth", "--config", str(synth_cfg), "--out-dir", str(data)]) == 0
    capsys.readouterr()
    t_split = synth.SynthConfig(weeks_train=2).t_split
    inputs = ["--logs", str(data / "logs.jsonl"), "--programs", str(data / "programs.jsonl"), "--out-dir", str(out)]
    split = ["--t-split", str(t_split), "--train-days", "14", "--test-days", "7"]
    return inputs, split


def _run_traced(tmp_path, steps):
    """Run ``steps`` through the traced harness; returns the summary and the span names."""
    plan = {
        "src": str(ROOT / "src"),
        "steps": steps,
        "trace": True,
        "spans": str(tmp_path / "spans.jsonl"),
        "summary": str(tmp_path / "summary.json"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    done = subprocess.run([sys.executable, str(TRACED), str(plan_path)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [step["rc"] for step in summary["steps"]] == [0] * len(steps), summary["steps"]
    with open(tmp_path / "spans.jsonl", encoding="utf-8") as fh:
        names = {json.loads(line)["name"] for line in fh}
    return summary, names


def test_traced_run_spans_every_model_building_stage(tmp_path, capsys):
    # The harness rebinds names only in the tvrec modules loaded when it
    # installs; a stage called through any other name would record no span.
    inputs, split = _synth_inputs(tmp_path, capsys)
    _, names = _run_traced(tmp_path, [["prep", *inputs, *split], ["build", *inputs, *split], ["recommend", *inputs]])
    stages = {
        "textenc.fit",
        "textenc.encode",
        "preference.build",
        "behavior.behavior_matrix",
        "ranker.build_candidates",
        "ranker.build_item_index",
    }
    assert stages <= names, f"no span for {sorted(stages - names)}"


def test_traced_prep_spans_ingestion_and_counts_every_log_line(tmp_path, capsys):
    # The parser reads logs in blocks; the harness still sees one parse_logs
    # call and counts every non-blank line, read by the block path or not.
    inputs, split = _synth_inputs(tmp_path, capsys, n_users=60)
    logs = Path(inputs[1])
    with open(logs, "a", encoding="utf-8") as fh:
        fh.write("\n  \n{not json\n")
    summary, names = _run_traced(tmp_path, [["prep", *inputs, *split]])
    stages = {"datamodel.parse_logs", "datamodel.parse_programs", "datamodel.prepare"}
    assert stages <= names, f"no span for {sorted(stages - names)}"
    non_blank = sum(1 for line in logs.read_text(encoding="utf-8").splitlines() if line.strip())
    assert non_blank > 2 * datamodel._BLOCK_LINES
    assert summary["metrics"]["datamodel.log_lines"]["value"] == non_blank


def test_traced_fusion_spans_each_ranker_and_reads_rrf_latency(tmp_path, capsys):
    # recommend and bench reach fusion through the module attributes the
    # harness rebinds; a call around them would record no span, and the
    # traced run would report ranker.rrf_ms_p50 as not measured.
    inputs, split = _synth_inputs(tmp_path, capsys)
    out = Path(inputs[-1])
    steps = [
        ["prep", *inputs, *split],
        ["build", *inputs, *split],
        ["recommend", *inputs, "--method", "rrf"],
        ["recommend", *inputs, "--method", "rrf-weighted"],
        ["bench", *inputs, "--method", "behavior,two-stage,rrf", "--users-sample", "4", "--reps", "1"],
    ]
    summary, names = _run_traced(tmp_path, steps)
    stages = {"ranker.rrf", "ranker.rrf_weighted", "ranker.rank_preference", "ranker.rank_behavior"}
    assert stages <= names, f"no span for {sorted(stages - names)}"
    assert summary["metrics"]["ranker.rrf_ms_p50"]["value"] > 0
    assert {"recs_rrf.jsonl", "recs_rrf-weighted.jsonl", "bench.json"} <= {p.name for p in out.iterdir()}
