"""Benchmark of the tvrec pipeline: prep -> build -> recommend -> evaluate ->
bench on a seeded synthetic world, timed end to end and, in a traced run, by
module.

    python3 perfbench/run.py --workload dataset-a-two-stage --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --digests      # print the input digests for README.md

Run from the repository root. See perfbench/README.md for the workloads,
the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
README = HERE / "README.md"
STEP_TIMEOUT_S = 170
TRACE_BENCH_USERS = 40  # bench sample of the traced run, for each of the three methods

sys.path.insert(0, str(HERE))
import reference  # noqa: E402


@dataclass(frozen=True)
class Workload:
    synth: dict
    synth_seed: int
    method: str
    bench_users: int  # `bench` sample for rank_ms_per_user, the same in every run
    bench_reps: int
    check_users: int  # users whose rankings are checked against the reference


WORKLOADS = {
    "dataset-a-two-stage": Workload(
        synth={"n_users": 2000, "n_channels": 30, "n_topics": 20, "weeks_train": 12, "weeks_test": 1},
        synth_seed=1,
        method="two-stage",
        bench_users=100,
        bench_reps=15,
        check_users=40,
    ),
    "wide-rrf": Workload(
        synth={"n_users": 80, "n_channels": 60, "n_topics": 20, "weeks_train": 3, "weeks_test": 1},
        synth_seed=2,
        method="rrf",
        bench_users=80,
        bench_reps=2,
        check_users=8,
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("recommend_users_per_s", "users/s"),
    ("rank_ms_per_user", "ms"),
    ("ndcg_at_10", "ratio"),
    ("bundle_mb", "MB"),
    ("setup_peak_rss_mb", "MB"),
    ("recommend_peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# inputs


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def recorded_digests() -> dict[tuple[str, str], str]:
    """Digests from README.md rows like ``| wide-rrf | logs.jsonl | <hex> |``."""
    pattern = re.compile(r"^\|\s*`?([\w.-]+)`?\s*\|\s*`?(\w+\.jsonl)`?\s*\|\s*`?([0-9a-f]{64})`?\s*\|")
    digests = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = pattern.match(line)
        if m:
            digests[(m.group(1), m.group(2))] = m.group(3)
    return digests


def ensure_inputs(name: str, verify: bool = True) -> Path:
    """Generate the workload's inputs with `tvrec synth` (cached under
    .perfbench_work/inputs) and check them against the recorded digests."""
    wl = WORKLOADS[name]
    data = WORK / "inputs" / name
    if not (data / "manifest.json").exists():
        tmp = WORK / "inputs" / f".{name}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        (tmp / "synth.json").write_text(json.dumps(wl.synth), encoding="utf-8")
        step = run_step(
            ["synth", "--config", str(tmp / "synth.json"), "--out-dir", str(tmp), "--seed", str(wl.synth_seed)],
            tmp / "synth",
        )
        if step["rc"] != 0:
            raise BenchError(f"{name}: `tvrec synth` exited {step['rc']}: {step['stderr'][-500:]}")
        shutil.rmtree(data, ignore_errors=True)
        tmp.rename(data)
    if verify:
        want = recorded_digests()
        for fname in ("logs.jsonl", "programs.jsonl"):
            recorded = want.get((name, fname))
            got = _sha256(data / fname)
            (data / fname.replace(".jsonl", ".sha256")).write_text(got, encoding="utf-8")
            if recorded != got:
                raise BenchError(
                    f"workload {name}: {fname} has sha256 {got}, README.md records {recorded}; "
                    "figures from other inputs are not comparable"
                )
    return data


# ---------------------------------------------------------------------------
# processes


def _env(hash_seed: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def _spawn(argv: list[str], log_stem: Path, env: dict) -> dict:
    """Run one process to its end; return its exit code, wall time, peak RSS
    and the tail of its stderr. It is killed after STEP_TIMEOUT_S."""
    log_stem.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stderr": Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace"),
    }


def run_step(cli_args: list[str], log_stem: Path) -> dict:
    return _spawn([sys.executable, "-m", "tvrec.cli", *cli_args], log_stem, _env())


# ---------------------------------------------------------------------------
# the pipeline


def engine_config(data: Path, out: Path, method: str) -> Path:
    """Engine config for one output directory: the split comes from the
    synth manifest, the ranking from the workload."""
    setup = ref_setup(data)
    cfg = {
        "preprocessing": {
            "t_split": setup.t_split,
            "train_days": setup.train_secs / 86_400,
            "test_days": setup.test_secs / 86_400,
        },
        "ranking": {"method": method, "mode": "time-aware"},
        "paths": {
            "logs": str(data / "logs.jsonl"),
            "programs": str(data / "programs.jsonl"),
            "out_dir": str(out),
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    path = out.parent / f"{out.name}.engine.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def load_reference(data: Path) -> reference.Reference:
    """The reference for one set of inputs. Building it parses every log
    line, so it is cached beside the inputs, keyed by the input digests and
    the reference code."""
    key = hashlib.sha256()
    for path in (data / "logs.sha256", data / "programs.sha256", HERE / "reference.py"):
        key.update(path.read_bytes())
    cache = data / f"reference-{key.hexdigest()[:16]}.pkl"
    if cache.exists():
        with open(cache, "rb") as fh:
            return pickle.load(fh)
    ref = reference.Reference(data, ref_setup(data))
    tmp = cache.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(ref, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.rename(cache)
    return ref


def ref_setup(data: Path) -> reference.Setup:
    synth_cfg = json.loads((data / "manifest.json").read_text(encoding="utf-8"))["config"]
    return reference.Setup(
        t_split=synth_cfg["origin"] + synth_cfg["weeks_train"] * reference.SECONDS_PER_WEEK,
        train_secs=synth_cfg["weeks_train"] * reference.SECONDS_PER_WEEK,
        test_secs=synth_cfg["weeks_test"] * reference.SECONDS_PER_WEEK,
    )


def pipeline_steps(cfg: Path, bench_methods: str, bench_users: int, reps: int):
    """The CLI argv of each step. `bench` keeps the config's seed, so it
    samples the same users in every run."""
    common = ["--config", str(cfg)]
    return {
        "prep": ["prep", *common],
        "build": ["build", *common],
        "recommend": ["recommend", *common],
        "evaluate": ["evaluate", *common],
        "bench": [
            "bench", *common, "--method", bench_methods,
            "--users-sample", str(bench_users), "--reps", str(reps),
        ],
    }


class Tally:
    """Operations attempted and failed, plus the problems the checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def step(self, name: str, result: dict) -> None:
        self.attempted += 1
        if result["rc"] != 0:
            self.failed += 1
            print(f"step {name} exited {result['rc']}: {result.get('stderr', '')[-300:]}", file=sys.stderr)


def check_outputs(ref: reference.Reference, out: Path, method: str, users: list[str], tally: Tally) -> None:
    """Check one output directory against the reference. Each sampled user
    is one operation; it fails when the user's row is missing."""
    try:
        tally.problems += reference.check_truth(ref, reference.read_jsonl(out / "truth.jsonl"))
        recs = reference.read_jsonl(out / f"recs_{method}.jsonl")
        report = json.loads((out / f"metrics_{method}.json").read_text(encoding="utf-8"))["report"]
    except (OSError, ValueError, KeyError) as exc:
        tally.attempted += len(users)
        tally.failed += len(users)
        tally.problems.append(f"{out}: unreadable output: {exc}")
        return
    tally.problems += reference.check_rows(ref, recs)
    tally.problems += reference.check_metrics(ref, recs, report)
    by_user = {row["user"]: row for row in recs}
    check = reference.check_two_stage if method == "two-stage" else reference.check_rrf
    for user in users:
        tally.attempted += 1
        row = by_user.get(user)
        if row is None:
            tally.failed += 1
            continue
        tally.problems += check(ref, user, row)


def sample_users(ref: reference.Reference, n: int, seed: int) -> list[str]:
    return random.Random(seed).sample(sorted(ref.users), min(n, len(ref.users)))


def same_bytes(paths: list[Path], tally: Tally) -> None:
    blobs = [p.read_bytes() for p in paths if p.exists()]
    if len(blobs) == len(paths) and any(b != blobs[0] for b in blobs[1:]):
        tally.problems.append(f"runs wrote different bytes: {', '.join(str(p) for p in paths)}")


def run_untraced(name: str, data: Path, seed: int, seconds: float, tally: Tally) -> dict:
    """Subprocess pipeline: prep and build once, then whole rounds of
    recommend until `seconds` have passed (at least one), then evaluate and
    bench once."""
    wl = WORKLOADS[name]
    base = WORK / name / "untraced"
    shutil.rmtree(base, ignore_errors=True)
    out = base / "out"
    cfg = engine_config(data, out, wl.method)
    steps = pipeline_steps(cfg, wl.method, wl.bench_users, wl.bench_reps)
    recs = out / f"recs_{wl.method}.jsonl"

    results = {s: run_step(steps[s], base / s) for s in ("prep", "build")}
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        i = len(rounds)
        rounds.append(run_step(steps["recommend"], base / f"recommend.{i}"))
        if recs.exists():
            shutil.copyfile(recs, base / f"{recs.name}.{i}")
    for s in ("evaluate", "bench"):
        results[s] = run_step(steps[s], base / s)
    for s, res in results.items():
        tally.step(s, res)
    for res in rounds:
        tally.step("recommend", res)

    ref = load_reference(data)
    check_outputs(ref, out, wl.method, sample_users(ref, wl.check_users, seed), tally)
    same_bytes([base / f"{recs.name}.{i}" for i in range(len(rounds))], tally)

    values = {
        "setup_s": results["prep"]["wall_s"] + results["build"]["wall_s"],
        "recommend_users_per_s": statistics.median(len(ref.users) / r["wall_s"] for r in rounds),
        "setup_peak_rss_mb": max(results["prep"]["peak_rss_mb"], results["build"]["peak_rss_mb"]),
        "recommend_peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    try:
        bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        values["rank_ms_per_user"] = bench["seconds_per_user"][wl.method] * 1e3
        report = json.loads((out / f"metrics_{wl.method}.json").read_text(encoding="utf-8"))["report"]
        values["ndcg_at_10"] = report["ndcg"]["10"]
        values["bundle_mb"] = (out / "model.pkl").stat().st_size / 1e6
    except (OSError, KeyError, ValueError) as exc:
        tally.problems.append(f"unreadable output: {exc}")
    walls = {**{s: r["wall_s"] for s, r in results.items()}, "recommend": statistics.median(r["wall_s"] for r in rounds)}
    print(f"{name}: {len(rounds)} recommend round(s); step walls (s): "
          + ", ".join(f"{s}={w:.2f}" for s, w in walls.items()))
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END if metric in values}


def run_traced(name: str, data: Path, seed: int, tally: Tally) -> dict:
    """The same steps in-process, once untraced and once traced, each in a
    fresh interpreter with its own bundle. The per-layer metrics come from
    the traced one; trace.overhead_s is the difference of their step walls."""
    wl = WORKLOADS[name]
    base = WORK / name / "traced"
    shutil.rmtree(base, ignore_errors=True)
    summaries = {}
    for label, trace, hash_seed in (("plain", False, "1"), ("traced", True, "2")):
        out = base / label / "out"
        cfg = engine_config(data, out, wl.method)
        steps = pipeline_steps(cfg, "behavior,two-stage,rrf", TRACE_BENCH_USERS, 1)
        plan = {
            "src": str(SRC),
            "steps": list(steps.values()),
            "trace": trace,
            "spans": str(base / "spans.jsonl"),
            "summary": str(base / label / "summary.json"),
        }
        plan_path = base / label / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=2), encoding="utf-8")
        proc = _spawn([sys.executable, str(HERE / "traced.py"), str(plan_path)], base / label / "traced",
                      _env(hash_seed))
        if proc["rc"] != 0:
            tally.attempted += len(steps)
            tally.failed += len(steps)
            print(f"{label} in-process run exited {proc['rc']}: {proc['stderr'][-500:]}", file=sys.stderr)
            continue
        summaries[label] = json.loads(Path(plan["summary"]).read_text(encoding="utf-8"))
        for step in summaries[label]["steps"]:
            tally.step(step["step"], step)

    ref = load_reference(data)
    users = sample_users(ref, wl.check_users, seed)
    for label in ("plain", "traced"):
        check_outputs(ref, base / label / "out", wl.method, users, tally)
    same_bytes([base / label / "out" / f"recs_{wl.method}.jsonl" for label in ("plain", "traced")], tally)

    if len(summaries) < 2:
        return {}
    metrics = summaries["traced"]["metrics"]
    walls = {label: sum(s["wall_s"] for s in summaries[label]["steps"]) for label in summaries}
    metrics["trace.overhead_s"] = {"value": walls["traced"] - walls["plain"], "unit": "s"}
    print(f"{name}: {summaries['traced']['spans']} spans in {base / 'spans.jsonl'}; "
          f"untraced {walls['plain']:.2f} s, traced {walls['traced']:.2f} s; tails {summaries['traced']['tails']}")
    return metrics


def declared_per_layer() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="selects the users checked against the reference")
    parser.add_argument("--seconds", type=float, default=12.0, help="least length of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true", help="print the input digest rows for README.md")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "tvrec" / "cli.py").is_file():
            raise BenchError(f"no tvrec package under {SRC}; run from a full checkout of the repository")
        if args.digests:
            for name in WORKLOADS:
                data = ensure_inputs(name, verify=False)
                for fname in ("logs.jsonl", "programs.jsonl"):
                    print(f"| {name} | {fname} | {_sha256(data / fname)} |")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        data = ensure_inputs(args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    tally = Tally()
    if args.trace:
        metrics = run_traced(args.workload, data, args.seed, tally)
        wanted = [m["name"] for m in declared_per_layer()]
    else:
        metrics = run_untraced(args.workload, data, args.seed, args.seconds, tally)
        wanted = [name for name, _ in END_TO_END]
    missing = [name for name in wanted if name not in metrics]
    if missing and tally.failed == 0:
        tally.problems.append(f"metrics not measured: {missing}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: metrics[name] for name in wanted if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
