"""Acceptance suite. Each test exercises one release criterion at its stated
tolerance and prints a single pass/fail line; run with `pytest -s` to see the
lines as they complete.

The directional and efficiency criteria run on full-scale synthetic datasets
(~2000 accounts, 30 channels, 12 train weeks + 1 test week); seed 1 is
"Dataset A" and is shared by several criteria through a module fixture.
"""

import gc
import json
import math
import random
import time
from dataclasses import dataclass

import pytest

from oracles import (
    behavior_row,
    brute_two_stage,
    dense_behavior_score,
    l2_norm,
    log_table,
    preference_model,
    random_instance,
    row_dicts,
)
from tvrec import behavior, bundle, datamodel, evaluate, preference, ranker, synth, textenc
from tvrec.cli import main as cli_main
from tvrec.timegrid import SECONDS_PER_WEEK

DATASET_SHAPE = dict(n_users=2000, n_channels=30, n_topics=20, weeks_train=12, weeks_test=1)
K = 30


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line)
    assert ok, line


@dataclass
class Dataset:
    cfg: synth.SynthConfig
    prep: datamodel.Prepared
    behavior: behavior.Behavior
    models: dict
    cand: ranker.Candidates
    build_seconds: float


def build_dataset(seed: int) -> Dataset:
    t0 = time.perf_counter()
    cfg = synth.SynthConfig(rng_seed=seed, **DATASET_SHAPE)
    world = synth.gen_world(cfg)
    logs = synth.gen_logs(world)
    spec = datamodel.SplitSpec(
        t_split=cfg.t_split,
        dt_train=cfg.weeks_train * SECONDS_PER_WEEK,
        dt_test=cfg.weeks_test * SECONDS_PER_WEEK,
    )
    prep, _ = datamodel.prepare(log_table(logs), world.metas, cfg.grid, spec)
    # The model `tvrec build` writes, built the same way.
    built, _ = bundle.build(prep, cfg.grid, {"seed": seed})
    models = {"global": preference.global_view(built.model), "time-aware": built.model}
    return Dataset(cfg, prep, built.behavior, models, built.cand, time.perf_counter() - t0)


def rank_and_score(ds: Dataset) -> dict[str, float]:
    """nDCG@10 for the four methods of the directional criterion."""
    recs = {name: {} for name in ("behavior", "preferences", "two-stage-global", "two-stage-time")}
    for user in ds.behavior.users:
        bm = ds.behavior.of(user)
        recs["behavior"][user] = ranker.top_k(ds.cand, ranker.rank_behavior(bm, ds.cand), K)
        recs["preferences"][user] = ranker.top_k(
            ds.cand, ranker.rank_preference(ds.models["time-aware"], user, ds.cand), K
        )
        recs["two-stage-global"][user] = ranker.top_k(
            ds.cand, ranker.two_stage(bm, ds.models["global"], ds.cand, K), K
        )
        recs["two-stage-time"][user] = ranker.top_k(
            ds.cand, ranker.two_stage(bm, ds.models["time-aware"], ds.cand, K), K
        )
    return {
        name: evaluate.evaluate_rankings(r, ds.prep.truths(), cutoffs=(10,), method=name).ndcg[10]
        for name, r in recs.items()
    }


@pytest.fixture(scope="module")
def dataset_a() -> Dataset:
    return build_dataset(1)


def test_criterion_1_two_stage_matches_brute_force_oracle():
    rng = random.Random(20_240_401)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        grid, metas, bm, models = random_instance(rng)
        cand = ranker.build_candidates(metas, grid, {c for _, c in bm.probs})
        k = rng.choice((1, 3, 10, 30))
        mode = rng.choice(("global", "time-aware"))
        ranking = ranker.two_stage(behavior_row(bm, cand), preference_model(models[mode], cand), cand, k)
        got = ranker.top_k(cand, ranking, k)
        want = brute_two_stage(bm, models[mode], metas, grid, k)
        assert got == want, f"two-stage mismatch on instance {checked}"
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "two-stage oracle equivalence",
        checked == 1000 and elapsed < 10.0,
        f"{checked} instances exactly matched in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_behavior_score_matches_dense_product():
    rng = random.Random(987)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 1000:
        grid, metas, bm, _ = random_instance(rng, max_programs=10)
        channels = sorted({m.channel for m in metas} | {c for _, c in bm.probs})
        cand = ranker.build_candidates(metas, grid, {c for _, c in bm.probs})
        scores = ranker.rank_behavior(behavior_row(bm, cand), cand).scores
        for meta in metas:
            efficient = float(scores[cand.ids.index(meta.program)])
            dense = dense_behavior_score(bm, meta, channels, grid)
            worst = max(worst, abs(efficient - dense))
            assert abs(efficient - dense) <= 1e-12
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "behavior score oracle equivalence",
        elapsed < 5.0,
        f"{checked} instances within 1e-12 (worst {worst:.2e}) in {elapsed:.1f}s (< 5s)",
    )


def test_criterion_3_distribution_invariants(dataset_a):
    worst_sum = 0.0
    for user in dataset_a.behavior.users:
        probs = dataset_a.behavior.of(user).probs.tolist()
        worst_sum = max(worst_sum, abs(sum(probs) - 1.0))
        assert all(p > 0 for p in probs)
    worst_norm = 0.0
    nonzero = 0
    # Every program's embedding: the bundle keeps the candidates' only.
    embeddings = textenc.encode(*textenc.fit(dataset_a.prep.texts))
    for emb in row_dicts(embeddings):
        if emb:
            nonzero += 1
            worst_norm = max(worst_norm, abs(l2_norm(emb) - 1.0))
    ok = worst_sum <= 1e-9 and worst_norm <= 1e-9
    _report(
        3,
        "distribution invariants",
        ok,
        f"{len(dataset_a.behavior.users)} behavior matrices sum to 1 "
        f"(worst dev {worst_sum:.2e}), {nonzero} non-zero embeddings unit-norm "
        f"(worst dev {worst_norm:.2e})",
    )


def test_criterion_4_directional_reproduction(dataset_a):
    t0 = time.perf_counter()
    per_seed = {}
    per_seed[1] = rank_and_score(dataset_a)
    for seed in (2, 3, 4):
        ds = build_dataset(seed)
        per_seed[seed] = rank_and_score(ds)
        del ds
        gc.collect()
    elapsed = time.perf_counter() - t0 + dataset_a.build_seconds

    seeds_ok = 0
    details = []
    for seed, scores in sorted(per_seed.items()):
        behavior_wins = scores["behavior"] > scores["preferences"]
        lift_ok = scores["two-stage-time"] >= 1.05 * scores["behavior"]
        time_aware_ok = scores["two-stage-time"] >= scores["two-stage-global"]
        seeds_ok += behavior_wins and lift_ok and time_aware_ok
        details.append(
            f"seed {seed}: beh={scores['behavior']:.4f} pref={scores['preferences']:.4f} "
            f"ts-g={scores['two-stage-global']:.4f} ts-t={scores['two-stage-time']:.4f} "
            f"[{'ok' if behavior_wins and lift_ok and time_aware_ok else 'violated'}]"
        )
    ok = seeds_ok >= 3 and elapsed < 600.0
    _report(
        4,
        "directional reproduction",
        ok,
        f"{seeds_ok}/4 seeds satisfy all orderings in {elapsed:.0f}s (< 600s); " + "; ".join(details),
    )


def test_criterion_5_efficiency_ratios(dataset_a):
    users = list(dataset_a.behavior.users)
    rng = random.Random(4242)
    sample = sorted(rng.sample(users, 200))
    model = dataset_a.models["time-aware"]
    cand = dataset_a.cand
    matrices = {u: dataset_a.behavior.of(u) for u in sample}

    t_behavior = evaluate.bench(
        lambda u: ranker.top_k(cand, ranker.rank_behavior(matrices[u], cand), K), sample, 3
    )
    t_two_stage = evaluate.bench(
        lambda u: ranker.top_k(cand, ranker.two_stage(matrices[u], model, cand, K), K), sample, 3
    )

    def rrf_pipeline(u):
        kb = ranker.rank_behavior(matrices[u], cand)
        kp = ranker.rank_preference(model, u, cand)
        return ranker.top_k(cand, ranker.rrf(kb, kp, cand, k=K), K)

    t_rrf = evaluate.bench(rrf_pipeline, sample, 3)

    stats = ranker.TwoStageStats()
    for u in sample:
        ranker.two_stage(matrices[u], model, cand, K, stats)
    evals_per_user = stats.preference_evals / len(sample)

    ratio_b = t_two_stage / t_behavior
    ratio_r = t_two_stage / t_rrf
    ok = ratio_b <= 2.0 and ratio_r <= 0.5 and evals_per_user <= 0.25 * len(cand)
    _report(
        5,
        "efficiency ratios",
        ok,
        f"sec/user behavior={t_behavior * 1e3:.2f}ms two-stage={t_two_stage * 1e3:.2f}ms "
        f"rrf={t_rrf * 1e3:.2f}ms; two-stage/behavior={ratio_b:.2f} (<=2.0), "
        f"two-stage/rrf={ratio_r:.2f} (<=0.5); preference evals/user "
        f"{evals_per_user:.1f} <= {0.25 * len(cand):.0f}",
    )


def test_criterion_6_metric_unit_suite():
    rec = ["i1", "i2", "i3"]
    truth = {"i1", "i3"}
    checks = [
        (evaluate.precision_at(rec, truth, 3), 2 / 3, 1e-12),
        (evaluate.precision_at(rec, {"x"}, 3), 0.0, 0.0),
        (evaluate.precision_at(rec, {"i1", "i2", "i3", "z"}, 3), 1.0, 0.0),
        (evaluate.recall_at(rec, truth, 3), 1.0, 0.0),
        (evaluate.recall_at(rec, {"i1", "zz"}, 1), 0.5, 1e-12),
        (evaluate.recall_at(rec, {"x", "y"}, 3), 0.0, 0.0),
        (evaluate.ndcg_at(rec, truth, 3), 0.9197, 1e-4),
        (evaluate.ndcg_at(["a", "b"], {"a", "b"}, 2), 1.0, 1e-12),
        (evaluate.ndcg_at(rec, {"none"}, 3), 0.0, 0.0),
        (evaluate.paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), 1.0, 0.0),
        (evaluate.paired_ttest([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0]), 0.0, 0.0),
        (
            evaluate.paired_ttest([0.95, 0.83, 0.94, 0.86], [0.45, 0.53, 0.54, 0.26]),
            0.006056848795908,
            1e-12,
        ),
    ]
    worst = max(abs(got - want) - tol for got, want, tol in checks)
    for got, want, tol in checks:
        assert abs(got - want) <= tol, (got, want, tol)
    hand = evaluate.ndcg_at(rec, truth, 3)
    exact = (1 + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
    assert hand == pytest.approx(exact, abs=1e-12)
    _report(6, "metric unit suite", True, f"{len(checks)} fixed-value checks passed (worst slack {worst:.1e})")


def test_criterion_7_rrf_algebra():
    rng = random.Random(777)
    for trial in range(100):
        grid, metas, bm, models = random_instance(rng, max_programs=40)
        cand = ranker.build_candidates(metas, grid, {c for _, c in bm.probs})
        kb = ranker.rank_behavior(behavior_row(bm, cand), cand)
        kp = ranker.rank_preference(preference_model(models["global"], cand), "u", cand)
        eta = rng.randint(1, 100)
        rows_b = kb.rows.tolist()
        rows_p = kp.rows.tolist()
        n = len(cand)
        assert ranker.rrf_weighted(kb, kp, cand, eta, xi=1.0, k=n).rows.tolist() == rows_b
        assert ranker.rrf_weighted(kb, kp, cand, eta, xi=0.0, k=n).rows.tolist() == rows_p
        assert (
            ranker.rrf_weighted(kb, kp, cand, eta, xi=0.5, k=n).rows.tolist()
            == ranker.rrf(kb, kp, cand, eta, k=n).rows.tolist()
        )
    _report(7, "RRF algebra", True, "xi in {1, 0, 0.5} reproduced kb / kp / unweighted orders on 100 instances each")


def test_criterion_8_end_to_end_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(
        json.dumps(
            {"n_users": 40, "n_channels": 5, "n_topics": 6, "weeks_train": 3, "weeks_test": 1, "rng_seed": 9}
        )
    )
    t_split = synth.SynthConfig(weeks_train=3).t_split
    artifacts = {}
    for run in ("one", "two"):
        root = tmp_path / run
        data = root / "data"
        out = root / "out"
        engine_cfg = root / "engine.json"
        root.mkdir()
        engine_cfg.write_text(
            json.dumps(
                {
                    "preprocessing": {"t_split": t_split, "train_days": 21, "test_days": 7},
                    "paths": {
                        "logs": str(data / "logs.jsonl"),
                        "programs": str(data / "programs.jsonl"),
                        "out_dir": str(out),
                    },
                    "seed": 13,
                }
            )
        )
        for argv in (
            ["synth", "--config", str(synth_cfg), "--out-dir", str(data)],
            ["prep", "--config", str(engine_cfg)],
            ["build", "--config", str(engine_cfg)],
            ["recommend", "--config", str(engine_cfg), "--method", "two-stage"],
            ["evaluate", "--config", str(engine_cfg), "--method", "two-stage"],
        ):
            assert cli_main(argv) == 0, argv
        artifacts[run] = {
            "recs": (out / "recs_two-stage.jsonl").read_bytes(),
            "metrics": (out / "metrics_two-stage.json").read_bytes(),
            "truth": (out / "truth.jsonl").read_bytes(),
            "prep_summary": (out / "prep_summary.json").read_bytes(),
            "vocab": (out / "vocab.json").read_bytes(),
            "model": (out / "model.pkl").read_bytes(),
            "prepared": (out / "prepared.npz").read_bytes(),
        }
    same = all(artifacts["one"][k] == artifacts["two"][k] for k in artifacts["one"])
    sizes = {k: len(v) for k, v in artifacts["one"].items()}
    _report(
        8,
        "end-to-end determinism",
        same,
        f"two full pipeline runs produced byte-identical artifacts {sizes}",
    )
