"""Guard for the benchmark's traced harness (perfbench/traced.py).

The harness wraps tvrec functions by name, calls `two_stage` with five
positional arguments, and counts parsed log lines as `len(logs) + skipped`
from what `parse_logs` returns. A renamed or deleted function, or a return
value without a length, would only surface as a crash of a traced benchmark
run, so these checks keep it visible here. The harness file is loaded by path
and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from tvrec import datamodel, ranker

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


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
