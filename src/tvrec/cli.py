"""Command-line pipeline: synth -> prep -> build -> recommend -> evaluate ->
bench -> tune, driven by one JSON config file with flag overrides.

`prep` parses the inputs once and writes, besides its summary and the truths,
``<out_dir>/prepared.npz``: the prepared dataset (see :mod:`tvrec.datamodel`).
`build` reads that file instead of the inputs. It checks that the file was
made from the same inputs (by sha256) with the same grid and preprocessing
values; a missing, stale or damaged file is a data error that asks for `prep`
to be run again.

`build` writes the model bundle (format: :mod:`tvrec.bundle`) that `recommend`,
`bench`, `tune` and `inspect-user` read, at ``<out_dir>/model.pkl`` (the name
of the pickled bundles before it, which the benchmark harness measures) unless
``--model`` names another path. A missing or damaged bundle is a data error
that asks for `build` to be run again.

Every artifact embeds the effective config hash and seed. The hash covers the
semantic config only and leaves out file locations, so runs that differ only in
where their files live embed the same provenance. Output files are written
atomically (temp file + rename) and no subcommand mutates its inputs.
Exit codes: 0 success, 2 usage or config error, 3 data error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
import tempfile
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import bundle as bundle_mod
from . import evaluate as evaluate_mod
from . import preference as preference_mod
from . import ranker as ranker_mod
from . import synth as synth_mod
from .arrays import sort_names
from .behavior import Behavior
from .datamodel import (
    Prepared,
    SplitSpec,
    dump_prepared,
    load_prepared,
    open_jsonl,
    parse_logs,
    parse_programs,
    prepare,
)
from .errors import ConfigError, DataError
from .timegrid import TimeGrid

PREPARED_FILE = "prepared.npz"

METHODS = ("behavior", "preference", "two-stage", "rrf", "rrf-weighted")
MODES = ("global", "time-aware")
MAX_GRID_VALUES = 10_000  # values one tune grid flag may list or span

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_CONFIG_SECTIONS = {
    "grid": ("n_slots", "utc_offset"),
    "preprocessing": ("min_duration_secs", "t_split", "train_days", "test_days"),
    "ranking": ("k", "method", "mode", "eta", "xi"),
    "evaluation": ("cutoffs",),
    "paths": ("logs", "programs", "out_dir", "model"),
}


@dataclass
class EngineConfig:
    """Effective engine configuration; defaults mirror the experimental setup
    (15-minute slots, 15-minute flip threshold, 90/7-day split, k=30)."""

    n_slots: int = 672
    utc_offset: int = 0
    min_duration_secs: int = 900
    t_split: int | None = None
    train_days: float = 90.0
    test_days: float = 7.0
    k: int = 30
    method: str = "two-stage"
    mode: str = "time-aware"
    eta: float = ranker_mod.DEFAULT_RRF_ETA
    xi: float = 0.5
    cutoffs: tuple[int, ...] = (10, 20, 30)
    seed: int = 0
    logs: str = "data/logs.jsonl"
    programs: str = "data/programs.jsonl"
    out_dir: str = "out"
    model: str | None = None

    def validate(self) -> None:
        try:
            TimeGrid(n=self.n_slots, utc_offset=self.utc_offset)
            ranker_mod.check_eta(self.eta)
            ranker_mod.check_xi(self.xi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.min_duration_secs < 0:
            raise ConfigError("min_duration_secs must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not all(1 <= days * 86_400 < 2**63 for days in (self.train_days, self.test_days)):  # NaN fails
            raise ConfigError("train_days and test_days must each give a window of 1 to 2**63 - 1 seconds")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.cutoffs or any(n < 1 for n in self.cutoffs):
            raise ConfigError("cutoffs must be positive integers")
        if len(set(self.cutoffs)) != len(self.cutoffs):
            raise ConfigError(f"cutoffs must not repeat, got {list(self.cutoffs)}")
        if self.k < max(self.cutoffs):
            raise ConfigError(f"k={self.k} must be >= the largest cutoff {max(self.cutoffs)}")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(n=self.n_slots, utc_offset=self.utc_offset)

    @property
    def split_spec(self) -> SplitSpec:
        if self.t_split is None:
            raise ConfigError("t_split is required (set preprocessing.t_split or --t-split)")
        return SplitSpec(
            t_split=self.t_split,
            dt_train=int(self.train_days * 86_400),
            dt_test=int(self.test_days * 86_400),
        )

    @property
    def model_path(self) -> str:
        return self.model or str(Path(self.out_dir) / "model.pkl")

    def config_hash(self) -> str:
        """Hash of every field except the `paths` keys (logs, programs, out_dir, model)."""
        semantic = {
            key: value
            for key, value in dataclasses.asdict(self).items()
            if key not in _CONFIG_SECTIONS["paths"]
        }
        blob = json.dumps(semantic, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def provenance(self) -> dict:
        return {"config_hash": self.config_hash(), "seed": self.seed}


_FIELD_TYPES = typing.get_type_hints(EngineConfig)
_SYNTH_TYPES = typing.get_type_hints(synth_mod.SynthConfig)


def _fits(value: object, hint: object) -> bool:
    """Whether ``value`` fits a config field's type; a bool is not a number."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _require_fits(key: str, value: object, hint: object, what: str = "config value") -> None:
    if not _fits(value, hint):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise ConfigError(f"{what} {key}={value!r} is not of type {name}")


def _set_field(cfg: EngineConfig, key: str, value: object) -> None:
    _require_fits(key, value, _FIELD_TYPES[key])
    setattr(cfg, key, tuple(value) if key == "cutoffs" else value)


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in ``path``. A missing file is a data error; a file that
    is not JSON, or whose root is not an object, is a config error."""
    if not Path(path).exists():
        raise DataError(f"{what} {path!r} does not exist")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{what} {path!r} is not valid UTF-8: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path!r} must hold a JSON object at its root")
    return raw


def load_config(path: str | None, overrides: Mapping[str, object]) -> EngineConfig:
    """Build the effective config: file values first, then flag overrides."""
    cfg = EngineConfig()
    if path is not None:
        for section, value in _read_json_object(path, "config file").items():
            if section == "seed":
                _set_field(cfg, "seed", value)
                continue
            fields = _CONFIG_SECTIONS.get(section)
            if fields is None:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(value, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            for key, v in value.items():
                if key not in fields:
                    raise ConfigError(f"unknown key {key!r} in config section {section!r}")
                _set_field(cfg, key, v)
    for key, value in overrides.items():
        if value is not None:
            _set_field(cfg, key, value)
    cfg.validate()
    return cfg


@contextlib.contextmanager
def _atomic_file(path: Path) -> Iterator[BinaryIO]:
    """A binary file that replaces ``path`` once the block completes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def _write_json(path: Path, payload: dict, provenance: dict) -> None:
    doc = {"provenance": provenance, **payload}
    _atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


_JSONL_BLOCK = 8192  # rows encoded and written at a time


def _write_jsonl(path: Path, rows: Iterable[dict], provenance: dict | None = None) -> None:
    """Write one JSON line per row, after a provenance line when one is given.
    Rows are taken and written a block at a time, so a row iterator is never
    held whole."""
    lines = map(json.dumps, rows)
    if provenance is not None:
        lines = itertools.chain([json.dumps({"_meta": provenance})], lines)
    with _atomic_file(path) as fh:
        while block := list(itertools.islice(lines, _JSONL_BLOCK)):
            fh.write(("\n".join(block) + "\n").encode())


def _column_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length columns as tuples of Python values, converted
    a block at a time."""
    for lo in range(0, len(columns[0]), _JSONL_BLOCK):
        yield from zip(*(column[lo : lo + _JSONL_BLOCK].tolist() for column in columns))


def _row_problem(rec: dict, keys: tuple[str, ...]) -> str | None:
    """What is wrong with the field types of a rec or truth row, if anything."""
    if type(rec["user"]) is not str:
        return "user must be a string"
    items = rec["items"]
    if type(items) is not list or any(type(item) is not str for item in items):
        return "items must be a list of strings"
    if "scores" in keys:
        if len(set(items)) != len(items):
            return "items must not repeat"
        scores = rec["scores"]
        if type(scores) is not list or any(type(s) not in (int, float) for s in scores):
            return "scores must be a list of numbers"
        if len(scores) != len(items):
            return "scores and items must have the same length"
    return None


def _read_jsonl(path: Path, keys: tuple[str, ...]) -> list[dict]:
    """The non-``_meta`` rows of a rec or truth file: each must be an object
    holding ``keys``, with a string ``user`` that no other row has, a list of
    string ``items`` and, in a rec row, distinct items and as many number
    ``scores``."""
    if not path.exists():
        raise DataError(f"input file {path} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from None
    rows = []
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        if isinstance(rec, dict) and "_meta" in rec:
            continue
        if not isinstance(rec, dict) or any(key not in rec for key in keys):
            raise DataError(f"{path}:{lineno}: expected an object with keys {', '.join(keys)}")
        problem = _row_problem(rec, keys)
        if problem is not None:
            raise DataError(f"{path}:{lineno}: {problem}")
        first = line_of.setdefault(rec["user"], lineno)
        if first != lineno:
            raise DataError(f"{path}:{lineno}: user {rec['user']!r} already has a row, on line {first}")
        rows.append(rec)
    return rows


def _require_inputs(*paths: str) -> None:
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise DataError(f"missing input file(s): {', '.join(missing)}")


def _summary_line(command: str, **payload) -> None:
    print(json.dumps({"command": command, "status": "ok", **payload}, sort_keys=True))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _prepared_manifest(cfg: EngineConfig) -> dict:
    """What a prepared file must have been made from: the grid, the
    preprocessing values and the sha256 of both inputs."""
    _require_inputs(cfg.logs, cfg.programs)
    return {
        "grid": {"n_slots": cfg.n_slots, "utc_offset": cfg.utc_offset},
        "preprocessing": {"min_duration_secs": cfg.min_duration_secs, **dataclasses.asdict(cfg.split_spec)},
        "inputs": {"logs": _sha256(cfg.logs), "programs": _sha256(cfg.programs)},
    }


def _load_prepared(cfg: EngineConfig) -> Prepared:
    path = Path(cfg.out_dir) / PREPARED_FILE
    manifest = _prepared_manifest(cfg)
    if not path.exists():
        raise DataError(f"prepared file {path} does not exist; run `prep` first")
    try:
        return load_prepared(path, manifest, cfg.grid)
    except DataError as exc:
        raise DataError(f"{exc}; run `prep` again") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args: argparse.Namespace) -> None:
    raw = _read_json_object(args.config, "synth config") if args.config is not None else {}
    if args.seed is not None:
        raw["rng_seed"] = args.seed
    for key, value in raw.items():
        if key in _SYNTH_TYPES:
            _require_fits(key, value, _SYNTH_TYPES[key], "synth config value")
    try:
        cfg = synth_mod.SynthConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synth config: {exc}") from None

    world = synth_mod.gen_world(cfg)
    logs = synth_mod.gen_logs(world)
    out = Path(args.out_dir)
    users, ids, channels = logs.user_names, logs.program_names, logs.channel_names
    _write_jsonl(
        out / "logs.jsonl",
        (
            {"user": users[u], "program": ids[p], "channel": channels[c], "t": t, "dt": dt}
            for u, p, c, t, dt in _column_rows(logs.user, logs.program, logs.channel, logs.t, logs.dt)
        ),
    )
    # By channel name, then start: the rows come by channel code.
    programs = world.programs
    ids, channels, texts = programs.program_names, programs.channel_names, programs.text
    order = np.lexsort((programs.start, sort_names(channels)[1][programs.channel]))
    columns = (order, programs.program[order], programs.channel[order], programs.start[order], programs.end[order])
    _write_jsonl(
        out / "programs.jsonl",
        (
            {"program": ids[p], "channel": channels[c], "start": start, "end": end, "text": texts[i]}
            for i, p, c, start, end in _column_rows(*columns)
        ),
    )
    manifest = synth_mod.manifest(world, logs)
    manifest["config_hash"] = hashlib.sha256(
        json.dumps(manifest["config"], sort_keys=True).encode()
    ).hexdigest()[:16]
    _atomic_write(out / "manifest.json", (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    _summary_line(
        "synth",
        out_dir=str(out),
        seed=cfg.rng_seed,
        t_split=cfg.t_split,
        programs=len(programs),
        logs=len(logs),
        accounts=len(world.accounts),
    )


def _cmd_prep(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    manifest = _prepared_manifest(cfg)
    with open_jsonl(cfg.logs) as fh:
        logs, skipped_logs = parse_logs(fh)
    with open_jsonl(cfg.programs) as fh:
        programs, skipped_programs = parse_programs(fh)
    prepared, summary = prepare(logs, programs, cfg.grid, cfg.split_spec, dt_min=cfg.min_duration_secs)
    del logs, programs
    out = Path(cfg.out_dir)
    with _atomic_file(out / PREPARED_FILE) as fh:
        dump_prepared(fh, prepared, manifest)
    _write_json(
        out / "prep_summary.json",
        {
            "summary": summary,
            "skipped_logs": skipped_logs,
            "skipped_programs": skipped_programs,
        },
        cfg.provenance(),
    )
    truth_rows = [{"user": u, "items": items} for u, items in prepared.truths().items()]
    _write_jsonl(out / "truth.jsonl", truth_rows, cfg.provenance())
    _summary_line("prep", **summary, skipped_logs=skipped_logs, skipped_programs=skipped_programs)


def _cmd_build(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    # Passed inline, the prepared dataset is freed as soon as bundle.build lets it go.
    bundle, vocab = bundle_mod.build(_load_prepared(cfg), cfg.grid, cfg.provenance())
    path = Path(cfg.model_path)
    with _atomic_file(path) as fh:
        bundle_mod.dump(fh, bundle)
    vocab_path = Path(cfg.out_dir) / "vocab.json"
    _write_json(vocab_path, {"vocabulary": vocab.to_dict()}, cfg.provenance())
    _summary_line(
        "build",
        model=str(path),
        vocab_size=vocab.size,
        users=len(bundle.behavior.users),
        test_items=len(bundle.cand),
    )



def _load_bundle(cfg: EngineConfig) -> bundle_mod.ModelBundle:
    path = Path(cfg.model_path)
    if not path.exists():
        raise DataError(f"model file {path} does not exist; run `build` first")
    try:
        return bundle_mod.load(path)
    except DataError as exc:
        raise DataError(f"{exc}; rebuild with `build`") from None


def _pref_model(bundle: bundle_mod.ModelBundle, mode: str) -> preference_mod.PreferenceModel:
    return bundle.model if mode == "time-aware" else preference_mod.global_view(bundle.model)


def _rankings_fn(bundle: bundle_mod.ModelBundle, model: preference_mod.PreferenceModel):
    """Per-user (behavior, preference) full rankings, the inputs of RRF."""
    cand = bundle.cand
    behavior = bundle.behavior

    def rankings(user: str) -> tuple[ranker_mod.Ranking, ranker_mod.Ranking]:
        return (
            ranker_mod.rank_behavior(behavior.of(user), cand),
            ranker_mod.rank_preference(model, user, cand),
        )

    return rankings


def _rank_user_fn(cfg: EngineConfig, bundle: bundle_mod.ModelBundle, method: str):
    """Per-user inference closure for one method; models resolved up front."""
    cand = bundle.cand
    behavior = bundle.behavior
    k = cfg.k
    if method == "behavior":
        return lambda u: ranker_mod.top_k(cand, ranker_mod.rank_behavior(behavior.of(u), cand), k)
    model = _pref_model(bundle, cfg.mode)
    if method == "two-stage":
        return lambda u: ranker_mod.top_k(cand, ranker_mod.two_stage(behavior.of(u), model, cand, k), k)
    if method == "preference":
        return lambda u: ranker_mod.top_k(cand, ranker_mod.rank_preference(model, u, cand), k)
    if method == "rrf":
        fuse = functools.partial(ranker_mod.rrf, eta=cfg.eta, k=k)
    elif method == "rrf-weighted":
        fuse = functools.partial(ranker_mod.rrf_weighted, eta=cfg.eta, xi=cfg.xi, k=k)
    else:
        raise ConfigError(f"unknown method {method!r}")
    rankings = _rankings_fn(bundle, model)
    return lambda u: ranker_mod.top_k(cand, fuse(*rankings(u), cand), k)


def _ranked_lists(rank_user: Callable[[str], ranker_mod.RankedList], users: Iterable[str]):
    """Each user's ``(user, ids, scores)``, one user at a time."""
    for user in users:
        ranked = rank_user(user)
        yield user, [pid for pid, _ in ranked], [score for _, score in ranked]


def _two_stage_lists(
    behavior: Behavior,
    model: preference_mod.PreferenceModel,
    cand: ranker_mod.Candidates,
    k: int,
    stats: ranker_mod.TwoStageStats,
):
    """Each user's two-stage ``(user, ids, scores)``, ranked a block of users
    at a time (:func:`tvrec.ranker.two_stage_block`)."""
    ids, names = cand.ids, behavior.users
    for users in ranker_mod.user_blocks(behavior, cand):
        winners = ranker_mod.two_stage_block(behavior, users, model, cand, k, stats)
        items, scores = list(map(ids.__getitem__, winners.col.tolist())), winners.val.tolist()
        ptr = winners.ptr.tolist()
        for user, lo, hi in zip(users.tolist(), ptr, ptr[1:]):
            yield names[user], items[lo:hi], scores[lo:hi]


def _cmd_recommend(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    bundle = _load_bundle(cfg)
    stats = ranker_mod.TwoStageStats() if cfg.method == "two-stage" else None
    if stats is not None:
        lists = _two_stage_lists(bundle.behavior, _pref_model(bundle, cfg.mode), bundle.cand, cfg.k, stats)
    else:
        lists = _ranked_lists(_rank_user_fn(cfg, bundle, cfg.method), bundle.behavior.users)
    # The generator holds what it serves; the bundle's CSR embeddings, padded into its index, can go.
    del bundle
    counts = {"users": 0, "short_lists": 0}

    def rows() -> Iterator[dict]:
        for user, items, scores in lists:
            counts["users"] += 1
            counts["short_lists"] += len(items) < cfg.k
            yield {"user": user, "items": items, "scores": scores}

    out = Path(args.out) if args.out else Path(cfg.out_dir) / f"recs_{cfg.method}.jsonl"
    _write_jsonl(out, rows(), cfg.provenance())
    if stats is not None:
        counts["preference_evals"] = stats.preference_evals
    _summary_line("recommend", method=cfg.method, mode=cfg.mode, k=cfg.k, **counts, out=str(out))


def _cmd_evaluate(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    rec_path = Path(args.rec) if args.rec else Path(cfg.out_dir) / f"recs_{cfg.method}.jsonl"
    truth_path = Path(args.truth) if args.truth else Path(cfg.out_dir) / "truth.jsonl"
    recs = {
        row["user"]: list(zip(row["items"], row["scores"]))
        for row in _read_jsonl(rec_path, ("user", "items", "scores"))
    }
    truths = {row["user"]: frozenset(row["items"]) for row in _read_jsonl(truth_path, ("user", "items"))}
    report = evaluate_mod.evaluate_rankings(recs, truths, cutoffs=cfg.cutoffs, method=cfg.method)
    print(evaluate_mod.format_table([report]))
    out = Path(args.out) if args.out else Path(cfg.out_dir) / f"metrics_{cfg.method}.json"
    _write_json(out, {"report": report.to_dict()}, cfg.provenance())
    _summary_line(
        "evaluate",
        method=cfg.method,
        users=report.n_users,
        skipped=report.n_skipped,
        missing=report.n_missing,
        out=str(out),
        **{f"ndcg@{n}": report.ndcg[n] for n in cfg.cutoffs},
    )


def _cmd_bench(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    if args.users_sample < 1 or args.reps < 1:
        raise ConfigError("--users-sample and --reps must be >= 1")
    bundle = _load_bundle(cfg)
    users = bundle.behavior.users
    rng = np.random.default_rng(cfg.seed)
    size = min(args.users_sample, len(users))
    sample = [users[i] for i in sorted(rng.choice(len(users), size=size, replace=False))]
    methods = args.bench_methods.split(",") if args.bench_methods else ["behavior", "two-stage", "rrf"]
    results = {}
    for method in methods:
        method = method.strip()
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")
        rank_user = _rank_user_fn(cfg, bundle, method)
        rank_user(sample[0])  # one untimed call first
        results[method] = evaluate_mod.bench(rank_user, sample, repetitions=args.reps)
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "bench.json"
    _write_json(
        out,
        {"seconds_per_user": results, "users_sampled": size, "repetitions": args.reps},
        cfg.provenance(),
    )
    _summary_line("bench", users=size, reps=args.reps, **{f"sec_per_user_{m}": v for m, v in results.items()})


def _parse_grid_spec(spec: str, flag: str, check: Callable[[float], None]) -> list[float]:
    """A comma list or ``lo:hi[:step]`` range of at most ``MAX_GRID_VALUES``
    values; ``check`` rejects a value with ValueError. A range is counted
    before it is built."""
    try:
        if "," in spec or ":" not in spec:
            values = [float(x) for x in spec.split(",") if x.strip()]
        else:
            parts = [float(x) for x in spec.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError("use lo:hi[:step] or a comma list")
            lo, hi, step = parts if len(parts) == 3 else (*parts, 1.0)
            if not step > 0 or hi < lo:
                raise ValueError("a range needs lo <= hi and a positive step")
            n = int(round((hi - lo) / step))
            # The range holds n or n + 1 values: count them before building it.
            if n > MAX_GRID_VALUES:
                raise ValueError(f"more than {MAX_GRID_VALUES} values")
            values = [lo + i * step for i in range(n + 1) if lo + i * step <= hi + 1e-9]
        if len(values) > MAX_GRID_VALUES:
            raise ValueError(f"more than {MAX_GRID_VALUES} values")
        for value in values:
            check(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {flag} {spec!r}: {exc}") from None
    if not values:
        raise ConfigError(f"{flag} {spec!r} is empty")
    return values


def _cmd_tune(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    if not 0 < args.dev_frac <= 1:
        raise ConfigError(f"--dev-frac must lie in (0, 1], got {args.dev_frac}")
    if args.cutoff < 1:
        raise ConfigError(f"--cutoff must be >= 1, got {args.cutoff}")
    etas = _parse_grid_spec(args.eta_grid, "--eta-grid", ranker_mod.check_eta)
    xis = _parse_grid_spec(args.xi_grid, "--xi-grid", ranker_mod.check_xi)
    bundle = _load_bundle(cfg)
    cand = bundle.cand
    users = bundle.behavior.users
    rng = np.random.default_rng(cfg.seed)
    n_dev = max(1, int(len(users) * args.dev_frac))
    picks = sorted(rng.choice(len(users), size=n_dev, replace=False).tolist())
    dev = [users[i] for i in picks]
    ptr = bundle.truth_ptr
    truths = {users[i]: [cand.ids[r] for r in bundle.truth_rows[ptr[i] : ptr[i + 1]].tolist()] for i in picks}
    if not any(truths.values()):
        raise DataError(f"none of the {len(dev)} development user(s) drawn has ground truth; nothing to tune on")

    rankings_of = _rankings_fn(bundle, _pref_model(bundle, cfg.mode))
    rankings = {user: rankings_of(user) for user in dev}
    eta, xi, best_recall = ranker_mod.tune_rrf(rankings, truths, cand, etas, xis, cutoff=args.cutoff)
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "tuned.json"
    _write_json(
        out,
        {"eta": eta, "xi": xi, "cutoff": args.cutoff, "dev_users": len(dev), "recall": best_recall},
        cfg.provenance(),
    )
    _summary_line("tune", eta=eta, xi=xi, recall=best_recall, dev_users=len(dev))


def _cmd_inspect_user(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    bundle = _load_bundle(cfg)
    entries = bundle.behavior.entries(args.user)
    print(json.dumps({"user": args.user, "entries": entries}, sort_keys=True))


# ---------------------------------------------------------------------------
# argument parsing


def _config_from_args(args: argparse.Namespace) -> EngineConfig:
    # Every flag whose destination is an EngineConfig field overrides it.
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(EngineConfig)}
    if overrides.get("cutoffs") is not None:
        try:
            overrides["cutoffs"] = tuple(int(x) for x in str(overrides["cutoffs"]).split(","))
        except ValueError:
            raise ConfigError(f"bad cutoffs {overrides['cutoffs']!r}; use e.g. 10,20,30") from None
    return load_config(getattr(args, "config", None), overrides)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="engine config JSON file")
    parser.add_argument("--logs", help="viewing logs JSONL")
    parser.add_argument("--programs", help="program metadata JSONL")
    parser.add_argument("--out-dir", dest="out_dir", help="artifact output directory")
    parser.add_argument("--model", help="model bundle path (default <out-dir>/model.pkl)")
    parser.add_argument("--seed", type=int, help="seed for sampling decisions")


def _add_prep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t-split", dest="t_split", type=int, help="split timestamp (UTC seconds)")
    parser.add_argument("--train-days", dest="train_days", type=float, help="training window length")
    parser.add_argument("--test-days", dest="test_days", type=float, help="test window length")
    parser.add_argument(
        "--min-duration-secs", dest="min_duration_secs", type=int, help="channel-flip threshold"
    )


def build_parser() -> argparse.ArgumentParser:
    # No prefix matching: `--out` must not stand for `--out-dir`, nor `--users`
    # for `--users-sample`; an abbreviated flag is an unknown flag.
    parser = argparse.ArgumentParser(
        prog="tvrec", description="Linear-TV recommendation pipeline", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset", allow_abbrev=False)
    p.add_argument("--config", help="synth config JSON file")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--seed", type=int, help="override the generator seed")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("prep", help="filter, split, and report dataset statistics", allow_abbrev=False)
    _add_common(p)
    _add_prep_flags(p)
    p.set_defaults(handler=_cmd_prep)

    p = sub.add_parser("build", help="build and persist the model index", allow_abbrev=False)
    _add_common(p)
    _add_prep_flags(p)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("recommend", help="write top-k recommendations per user", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--k", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--out", help="recommendations JSONL path")
    p.set_defaults(handler=_cmd_recommend)

    p = sub.add_parser("evaluate", help="score recommendations against ground truth", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--rec", help="recommendations JSONL")
    p.add_argument("--truth", help="ground-truth JSONL")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--cutoffs", help="comma-separated cutoffs, e.g. 10,20,30")
    p.add_argument("--out", help="metrics JSON path")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("bench", help="measure per-user inference latency", allow_abbrev=False)
    _add_common(p)
    p.add_argument(
        "--method",
        dest="bench_methods",
        help="comma-separated methods (default behavior,two-stage,rrf)",
    )
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--users-sample", dest="users_sample", type=int, default=1000)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--eta", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--out", help="bench JSON path")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("tune", help="grid-search RRF hyperparameters on a dev split", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--dev-frac", dest="dev_frac", type=float, default=0.1)
    p.add_argument("--eta-grid", dest="eta_grid", default="1:100")
    p.add_argument("--xi-grid", dest="xi_grid", default="0:1:0.1")
    p.add_argument("--cutoff", type=int, default=30)
    p.add_argument("--out", help="tuned parameters JSON path")
    p.set_defaults(handler=_cmd_tune)

    p = sub.add_parser("inspect-user", help="dump one user's behavior matrix", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--user", required=True)
    p.set_defaults(handler=_cmd_inspect_user)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return EXIT_OK
    try:
        args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
