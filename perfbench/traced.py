"""Run CLI steps in-process through ``tvrec.cli.main``, traced or not.

    python3 perfbench/traced.py PLAN.json

The plan is a JSON object: ``{"src": <dir holding tvrec>, "steps": [argv,
...], "trace": bool, "spans": <path>, "summary": <path>}``. With ``trace``
on, the public stage-level functions of datamodel, textenc, preference,
behavior, ranker and evaluate are wrapped from outside the program, and every
module-level name bound to one of them (such as ``tvrec.cli.parse_logs``) is
rebound to the wrapper. Spans (name, start, end, parent) stay in memory; at
the end they are written as JSONL and the per-layer metrics, as self times,
go into the summary. Per-element helpers (``dot``, ``tokenize``,
``mean_embedding``, ``slot_of``, the metric functions) are not wrapped: a span
per call would cost more than the work, so their time counts toward their
caller's self time.

Without ``trace`` the same steps run unwrapped, so the two runs' wall times
differ by the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

WRAPPED = {
    "datamodel": ("parse_logs", "parse_programs", "prepare", "build_tensor"),
    "textenc": ("fit", "encode"),
    "preference": ("build",),
    "behavior": ("behavior_matrix",),
    "ranker": (
        "build_candidates",
        "build_item_index",
        "rank_behavior",
        "rank_preference",
        "two_stage",
        "rrf",
        "rrf_weighted",
    ),
    "evaluate": ("evaluate_rankings", "bench"),
}


class Tracer:
    """In-memory span recorder plus the counters read at the same calls.

    Spans live in four flat lists (no object per span), so recording adds no
    work for the garbage collector on top of the program's own heap."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self.ends[idx] = time.perf_counter()
        self.starts[idx] = t0
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)

    def wrap(self, name: str, fn):
        open_, close, clock = self._open, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, t0)

        return traced

    def install(self) -> None:
        import tvrec.cli  # noqa: F401  (loads every module whose names get rebound)
        from tvrec import ranker

        replaced = {}
        for mod_name, names in WRAPPED.items():
            module = sys.modules[f"tvrec.{mod_name}"]
            for name in names:
                original = getattr(module, name)
                replaced[id(original)] = (original, self._wrapper(f"{mod_name}.{name}", original, ranker))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tvrec" and not mod_name.startswith("tvrec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrapper(self, name: str, fn, ranker):
        """The span wrapper for one function; three also read a count."""
        counts = self.counts
        traced = self.wrap(name, fn)
        if name == "datamodel.parse_logs":

            def parse_logs(lines):
                logs, skipped = traced(lines)
                counts["datamodel.log_lines"] += len(logs) + skipped
                return logs, skipped

            return functools.wraps(fn)(parse_logs)
        if name == "ranker.build_candidates":

            def build_candidates(*args, **kwargs):
                cand = traced(*args, **kwargs)
                counts["ranker.candidates"] = max(counts["ranker.candidates"], len(cand))
                return cand

            return functools.wraps(fn)(build_candidates)
        if name == "ranker.two_stage":

            def two_stage(bm, model, cand, k, stats=None):
                own = stats if stats is not None else ranker.TwoStageStats()
                before = own.preference_evals
                out = traced(bm, model, cand, k, own)
                counts["ranker.two_stage_pref_evals"] += own.preference_evals - before
                return out

            return functools.wraps(fn)(two_stage)
        return traced

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.names)
        for t0, t1, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, inner in zip(self.names, self.starts, self.ends, child_time):
            out[name] += (t1 - t0) - inner
        return out

    def durations_ms(self, name: str) -> list[float]:
        return sorted((t1 - t0) * 1e3 for n, t0, t1 in zip(self.names, self.starts, self.ends) if n == name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent}) + "\n")


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it; None
    below forty samples, where that percentile would be no tail."""
    if n < 40:
        return None
    return (100 * (n - 10)) // n


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """The per-layer metrics: self times in seconds, per-call latencies in
    milliseconds (median and tail), and counts."""
    st = tracer.self_times()
    counts = tracer.counts
    out = {
        "datamodel.parse_logs_s": st["datamodel.parse_logs"],
        "datamodel.parse_programs_s": st["datamodel.parse_programs"],
        "datamodel.prepare_s": st["datamodel.prepare"],
        "datamodel.build_tensor_s": st["datamodel.build_tensor"],
        "textenc.fit_s": st["textenc.fit"],
        "textenc.encode_s": st["textenc.encode"],
        "preference.build_s": st["preference.build"],
        "behavior.behavior_matrix_s": st["behavior.behavior_matrix"],
        "ranker.index_s": st["ranker.build_candidates"] + st["ranker.build_item_index"],
        "evaluate.evaluate_rankings_s": st["evaluate.evaluate_rankings"],
        "cli.prep_self_s": st["cli.prep"],
        "cli.build_self_s": st["cli.build"],
        "cli.recommend_self_s": st["cli.recommend"],
    }
    metrics = {name: {"value": value, "unit": "s"} for name, value in out.items()}
    tails = {}
    for short in ("two_stage", "rank_behavior", "rank_preference", "rrf"):
        calls = tracer.durations_ms(f"ranker.{short}")
        if calls:
            metrics[f"ranker.{short}_ms_p50"] = {"value": percentile(calls, 50), "unit": "ms"}
            p = tail_percentile(len(calls))
            if p is not None:
                metrics[f"ranker.{short}_ms_tail"] = {"value": percentile(calls, p), "unit": "ms"}
                tails[short] = {"percentile": p, "calls": len(calls)}
    n_two_stage = len(tracer.durations_ms("ranker.two_stage"))
    if n_two_stage:
        metrics["ranker.two_stage_pref_evals_per_user"] = {
            "value": counts["ranker.two_stage_pref_evals"] / n_two_stage,
            "unit": "count",
        }
    metrics["datamodel.log_lines"] = {"value": int(counts["datamodel.log_lines"]), "unit": "count"}
    metrics["textenc.encode_calls"] = {"value": len(tracer.durations_ms("textenc.encode")), "unit": "count"}
    metrics["ranker.candidates"] = {"value": int(counts["ranker.candidates"]), "unit": "count"}
    return {"metrics": metrics, "tails": tails}


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from tvrec import cli

    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.install()
    steps = []
    for argv in plan["steps"]:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            if tracer is not None:
                with tracer.span(f"cli.{argv[0]}"):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
        steps.append({"step": argv[0], "rc": rc, "wall_s": time.perf_counter() - t0})
    summary = {"steps": steps}
    if tracer is not None:
        tracer.write(Path(plan["spans"]))
        summary.update(layer_metrics(tracer))
        summary["spans"] = len(tracer.names)
    return summary


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: traced.py PLAN.json", file=sys.stderr)
        return 2
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    summary = run(plan)
    Path(plan["summary"]).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
