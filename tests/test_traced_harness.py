"""Guard for the benchmark's traced harness (perfbench/traced.py).

The harness wraps tvrec functions by name and calls `two_stage` with five
positional arguments. A renamed or deleted function would only surface as a
crash of a traced benchmark run, so these checks keep it visible here. The
harness file is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from tvrec import ranker

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
