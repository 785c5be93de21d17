import random

import numpy as np
import pytest

from oracles import (
    MONDAY,
    brute_rank,
    brute_two_stage,
    random_instance,
    scalar_behavior,
    scalar_preference,
)
from tvrec.behavior import BehaviorMatrix
from tvrec.datamodel import ProgramMeta
from tvrec.errors import DataError
from tvrec.evaluate import recall_at
from tvrec.preference import PreferenceModel
from tvrec.ranker import (
    Ranking,
    TwoStageStats,
    build_candidates,
    build_item_index,
    rank_behavior,
    rank_preference,
    rrf,
    rrf_weighted,
    top_k,
    tune_rrf,
    two_stage,
)
from tvrec.timegrid import TimeGrid

GRID = TimeGrid(n=672)


def meta(pid, channel="c1", start_slot=1, n_slots=2, offset=0):
    start = MONDAY + (start_slot - 1) * 900 + offset
    return ProgramMeta(pid, channel, start, start + n_slots * 900 - 1, "")


def global_model(user_vec, items):
    return PreferenceModel(global_prefs={"u": user_vec}, slot_prefs={}, item_embeddings=items)


def ranked(cand, ranking):
    """Every row of ``ranking`` as (program id, score) pairs."""
    return top_k(cand, ranking, len(cand))


def ids(cand, ranking):
    return [pid for pid, _ in ranked(cand, ranking)]


def pref_index(model, cand):
    return build_item_index(model.item_embeddings, cand)


def test_build_candidates_rejects_duplicates():
    with pytest.raises(DataError):
        build_candidates([meta("p1"), meta("p1")], GRID)


def test_rank_behavior_orders_by_score():
    metas = [meta("A", start_slot=1), meta("B", start_slot=5)]
    bm = BehaviorMatrix("u", {(1, "c1"): 0.5, (5, "c1"): 0.3, (6, "c1"): 0.2})
    cand = build_candidates(metas, GRID, {"c1"})
    assert ranked(cand, rank_behavior(bm, cand)) == [("A", 0.5), ("B", 0.3)]


def test_rank_behavior_tie_breaks_by_earlier_start_then_id():
    metas = [
        meta("B", start_slot=1, offset=0),
        meta("A", start_slot=1, offset=300),
        meta("C", start_slot=1, offset=0),
    ]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    cand = build_candidates(metas, GRID, {"c1"})
    assert ids(cand, rank_behavior(bm, cand)) == ["B", "C", "A"]


def test_rank_behavior_all_zero_scores_sorted_by_start_then_id():
    rng = random.Random(1)
    metas = [
        meta(f"p{i:02d}", channel="c-unwatched", start_slot=rng.randint(1, 20)) for i in range(15)
    ]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    cand = build_candidates(metas, GRID, {"c1"})
    expected = [m.program for m in sorted(metas, key=lambda m: (m.start, m.program))]
    assert ids(cand, rank_behavior(bm, cand)) == expected


def test_rank_preference_matches_dot_and_sort_oracle():
    items = {"A": {0: 1.0}, "B": {0: 0.5, 1: 0.5}, "C": {1: 1.0}}
    model = global_model({0: 1.0}, items)
    metas = [meta(p, start_slot=i + 1) for i, p in enumerate("ABC")]
    cand = build_candidates(metas, GRID, {"c1"})
    pairs = ranked(cand, rank_preference(model, "u", cand, pref_index(model, cand)))
    assert [pid for pid, _ in pairs] == ["A", "B", "C"]
    assert [s for _, s in pairs] == pytest.approx([1.0, 0.5, 0.0])


def test_rank_preference_tie_breaks_by_start_time():
    items = {"A": {0: 1.0}, "B": {0: 1.0}}
    model = global_model({0: 1.0}, items)
    metas = [meta("A", start_slot=9), meta("B", start_slot=2)]
    cand = build_candidates(metas, GRID, {"c1"})
    assert ids(cand, rank_preference(model, "u", cand, pref_index(model, cand))) == ["B", "A"]


def test_rank_preference_indexed_path_matches_scalar_path():
    # The batched scores equal the oracle's scalar dot products exactly, and
    # the order is the oracle's (score desc, start asc, id asc) sort.
    rng = random.Random(17)
    for _ in range(60):
        grid, metas, bm, models = random_instance(rng)
        cand = build_candidates(metas, grid, {c for _, c in bm.probs})
        for model in models.values():
            got = ranked(cand, rank_preference(model, "u", cand, pref_index(model, cand)))
            want = {m.program: scalar_preference(model, "u", m, grid) for m in metas}
            assert dict(got) == want
            assert [pid for pid, _ in got] == brute_rank(want, metas)


def test_two_stage_hand_trace():
    # stage-1 order [A(w1,c1,.5), B(w1,c1,.5), C(w2,c1,.3)]; preference favors B.
    metas = [
        meta("A", start_slot=1, n_slots=1),
        meta("B", start_slot=1, n_slots=1, offset=300),
        meta("C", start_slot=2, n_slots=1, offset=300),
    ]
    bm = BehaviorMatrix("u", {(1, "c1"): 0.5, (2, "c1"): 0.3})
    model = global_model({0: 1.0}, {"A": {0: 0.2}, "B": {0: 0.9}, "C": {0: 0.1}})
    cand = build_candidates(metas, GRID, {"c1"})
    assert ids(cand, two_stage(bm, model, cand, 2)) == ["B", "C"]


def test_two_stage_distinct_group_keys_reduce_to_behavior_prefix():
    rng = random.Random(23)
    for _ in range(40):
        grid, metas, bm, models = random_instance(rng)
        by_key = {}  # keep one program per group key so every run is a singleton
        for m in metas:
            _, slot, channel = scalar_behavior(bm, m, grid)
            by_key.setdefault((slot, channel), m)
        distinct = list(by_key.values())
        cand = build_candidates(distinct, grid, {c for _, c in bm.probs})
        k = rng.randint(1, len(distinct))
        got = top_k(cand, two_stage(bm, models["global"], cand, k), k)
        assert got == top_k(cand, rank_behavior(bm, cand), k)


def test_two_stage_k1_single_group_takes_preference_maximum():
    metas = [meta(p, start_slot=1, n_slots=1, offset=o) for p, o in (("A", 0), ("B", 100), ("C", 200))]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    model = global_model({0: 1.0}, {"A": {0: 0.3}, "B": {0: 0.8}, "C": {0: 0.5}})
    cand = build_candidates(metas, GRID, {"c1"})
    assert ids(cand, two_stage(bm, model, cand, 1)) == ["B"]


def test_two_stage_run_preference_tie_breaks_by_earlier_start_then_id():
    # One run (slot 1, channel c1). A is first in row order but less preferred;
    # B, C and D tie on preference. C and D share the earliest start of the
    # three, and C has the smaller id; B has a smaller id but starts later.
    metas = [
        meta("D", start_slot=1, n_slots=1, offset=100),
        meta("B", start_slot=1, n_slots=1, offset=200),
        meta("A", start_slot=1, n_slots=1, offset=0),
        meta("C", start_slot=1, n_slots=1, offset=100),
    ]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    model = global_model({0: 1.0}, {"A": {0: 0.1}, "B": {0: 0.9}, "C": {0: 0.9}, "D": {0: 0.9}})
    cand = build_candidates(metas, GRID, {"c1"})
    for k in (1, 5):
        assert ids(cand, two_stage(bm, model, cand, k)) == ["C"]


def test_two_stage_flushes_pending_run_at_exhaustion():
    metas = [meta("A", start_slot=1, n_slots=1), meta("B", start_slot=1, n_slots=1, offset=300)]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    model = global_model({0: 1.0}, {"A": {0: 0.1}, "B": {0: 0.9}})
    cand = build_candidates(metas, GRID, {"c1"})
    assert ids(cand, two_stage(bm, model, cand, 5)) == ["B"]


def test_two_stage_emits_behavior_scores_for_winners():
    metas = [meta("A", start_slot=3, n_slots=1)]
    bm = BehaviorMatrix("u", {(3, "c1"): 0.7, (1, "c1"): 0.3})
    model = global_model({0: 1.0}, {"A": {0: 0.2}})
    cand = build_candidates(metas, GRID, {"c1"})
    assert top_k(cand, two_stage(bm, model, cand, 1), 1) == [("A", 0.7)]


def test_two_stage_matches_brute_force_reference():
    rng = random.Random(99)
    for _ in range(250):
        grid, metas, bm, models = random_instance(rng)
        cand = build_candidates(metas, grid, {c for _, c in bm.probs})
        k = rng.choice((1, 2, 5, 30))
        mode = rng.choice(("global", "time-aware"))
        got = top_k(cand, two_stage(bm, models[mode], cand, k), k)
        want = brute_two_stage(bm, models[mode], metas, grid, k)
        assert got == want


def test_two_stage_never_emits_two_items_from_one_run():
    rng = random.Random(7)
    for _ in range(50):
        grid, metas, bm, models = random_instance(rng)
        cand = build_candidates(metas, grid, {c for _, c in bm.probs})
        winners = ids(cand, two_stage(bm, models["global"], cand, 30))
        # reference grouping: map each winner to its maximal stage-one run
        from oracles import brute_stage_one

        runs = []
        prev = None
        for m, sb, key in brute_stage_one(bm, metas, grid):
            if not runs or key != prev:
                runs.append(set())
            runs[-1].add(m.program)
            prev = key
        for run in runs:
            assert len(run & set(winners)) <= 1


def test_two_stage_is_lazy_and_instrumented():
    rng = random.Random(31)
    grid, metas, bm, models = random_instance(rng, max_programs=50)
    cand = build_candidates(metas, grid, {c for _, c in bm.probs})
    stats = TwoStageStats()
    two_stage(bm, models["global"], cand, 1, stats)
    # one emitted group: only the first run plus one trigger item get scored
    assert 1 <= stats.preference_evals <= len(metas)
    full = TwoStageStats()
    two_stage(bm, models["global"], cand, len(metas), full)
    assert full.preference_evals <= len(metas)


def test_two_stage_k_must_be_positive():
    cand = build_candidates([meta("A")], GRID, {"c1"})
    with pytest.raises(ValueError):
        two_stage(BehaviorMatrix("u", {(1, "c1"): 1.0}), global_model({}, {"A": {}}), cand, 0)


# fusion


def ranking_of(cand, pids, scores=None):
    """A ranking listing ``pids`` in order, with scores indexed by row;
    fusion reads only the rows."""
    rows = np.asarray([cand.ids.index(p) for p in pids], dtype=np.int64)
    return Ranking(rows, np.zeros(len(cand)) if scores is None else np.asarray(scores))


def fused_fixture():
    metas = [meta(p, start_slot=i + 1) for i, p in enumerate(("A", "B", "C"))]
    cand = build_candidates(metas, GRID, {"c1"})
    kb = ranking_of(cand, "ABC", [0.9, 0.5, 0.1])
    kp = ranking_of(cand, "CBA", [0.2, 0.6, 0.8])
    return cand, kb, kp


def test_rrf_score_arithmetic():
    cand, kb, kp = fused_fixture()
    fused = rrf(kb, kp, cand, eta=60)
    scores = dict(ranked(cand, fused))
    assert scores["A"] == pytest.approx(1 / 61 + 1 / 63)
    assert scores["A"] == pytest.approx(0.032266, abs=1e-6)


def test_rrf_dominance_is_monotone():
    rng = random.Random(5)
    cand, kb, kp = fused_fixture()
    for eta in (0, 1, 17, 60, 1000):
        fused = ids(cand, rrf(kb, kp, cand, eta=eta))
        assert fused.index("B") < fused.index("C") or fused.index("A") < fused.index("C")
        # A is ranked 1st and 3rd; B is 2nd and 2nd; C is 3rd and 1st.
        # An item ranked better in both lists must come first: none here, so
        # just check an explicitly dominated pair built on the fly.
    kb2 = ranking_of(cand, "ABC", [3.0, 2.0, 1.0])
    kp2 = ranking_of(cand, "ABC", [3.0, 2.0, 1.0])
    for eta in (0, 0.5, 6, 1e6):
        assert ids(cand, rrf(kb2, kp2, cand, eta=eta)) == ["A", "B", "C"]


def test_rrf_large_eta_matches_brute_force_ordering():
    rng = random.Random(13)
    for _ in range(30):
        grid, metas, bm, _ = random_instance(rng, max_programs=20)
        cand = build_candidates(metas, grid, {c for _, c in bm.probs})
        order = [m.program for m in sorted(metas, key=lambda m: (m.start, m.program))]
        perm_b = rng.sample(order, len(order))
        perm_p = rng.sample(order, len(order))
        kb = ranking_of(cand, perm_b)
        kp = ranking_of(cand, perm_p)
        eta = 1e6
        pos_b = {p: i + 1 for i, p in enumerate(perm_b)}
        pos_p = {p: i + 1 for i, p in enumerate(perm_p)}
        scores = {p: 1 / (pos_b[p] + eta) + 1 / (pos_p[p] + eta) for p in order}
        assert ids(cand, rrf(kb, kp, cand, eta=eta)) == brute_rank(scores, metas)


def test_rrf_rejects_mismatched_item_sets():
    cand, kb, kp = fused_fixture()
    with pytest.raises(ValueError):
        rrf(Ranking(kb.rows[:2], kb.scores), kp, cand)
    with pytest.raises(ValueError):
        rrf(ranking_of(cand, "AAB"), kp, cand)
    for outside in (3, -1):
        with pytest.raises(ValueError):
            rrf(Ranking(np.asarray([0, 1, outside]), kb.scores), kp, cand)


def test_rrf_weighted_extremes_follow_single_rankers():
    rng = random.Random(21)
    for _ in range(30):
        grid, metas, bm, models = random_instance(rng, max_programs=25)
        cand = build_candidates(metas, grid, {c for _, c in bm.probs})
        kb = rank_behavior(bm, cand)
        kp = rank_preference(models["global"], "u", cand, pref_index(models["global"], cand))
        eta = rng.randint(1, 100)
        assert ids(cand, rrf_weighted(kb, kp, cand, eta=eta, xi=1.0)) == ids(cand, kb)
        assert ids(cand, rrf_weighted(kb, kp, cand, eta=eta, xi=0.0)) == ids(cand, kp)
        assert ids(cand, rrf_weighted(kb, kp, cand, eta=eta, xi=0.5)) == ids(
            cand, rrf(kb, kp, cand, eta=eta)
        )


def test_rrf_weighted_validates_hyperparameters():
    cand, kb, kp = fused_fixture()
    with pytest.raises(ValueError):
        rrf_weighted(kb, kp, cand, eta=-1)
    with pytest.raises(ValueError):
        rrf_weighted(kb, kp, cand, xi=1.5)


def test_rankers_are_deterministic():
    rng = random.Random(77)
    grid, metas, bm, models = random_instance(rng)
    cand = build_candidates(metas, grid, {c for _, c in bm.probs})
    index = pref_index(models["time-aware"], cand)
    assert ranked(cand, rank_behavior(bm, cand)) == ranked(cand, rank_behavior(bm, cand))
    assert ranked(cand, rank_preference(models["time-aware"], "u", cand, index)) == ranked(
        cand, rank_preference(models["time-aware"], "u", cand, index)
    )
    assert ranked(cand, two_stage(bm, models["global"], cand, 10)) == ranked(
        cand, two_stage(bm, models["global"], cand, 10)
    )


# tuning


def tuning_fixture():
    rng = random.Random(55)
    grid, metas, bm, models = random_instance(rng, max_programs=30)
    cand = build_candidates(metas, grid, {c for _, c in bm.probs})
    kb = rank_behavior(bm, cand)
    kp = rank_preference(models["global"], "u", cand, pref_index(models["global"], cand))
    truth = frozenset(pid for pid, _ in top_k(cand, kb, 4))
    return cand, {"u": (kb, kp)}, {"u": truth}


def fused_recall(cand, rankings, truths, eta, xi, cutoff):
    """Recall at ``cutoff`` of the weighted-RRF list that recommend writes."""
    return recall_at(ranked(cand, rrf_weighted(*rankings["u"], cand, eta=eta, xi=xi)), truths["u"], cutoff)


def test_tune_rrf_single_point_grid():
    cand, rankings, truths = tuning_fixture()
    want = fused_recall(cand, rankings, truths, 42, 0.3, 30)
    assert tune_rrf(rankings, truths, cand, [42], [0.3]) == (42, 0.3, want)


def test_tune_rrf_beats_or_matches_untuned_default():
    cand, rankings, truths = tuning_fixture()
    etas = list(range(1, 101))
    xis = [i / 10 for i in range(11)]
    eta, xi, recall = tune_rrf(rankings, truths, cand, etas, xis, cutoff=10)
    tuned = fused_recall(cand, rankings, truths, eta, xi, 10)
    untuned = fused_recall(cand, rankings, truths, 60, 0.5, 10)
    assert recall == tuned
    assert tuned >= untuned


def test_tune_rrf_ties_resolve_to_smallest_eta_then_xi():
    cand, rankings, truths = tuning_fixture()
    # any grid where every point achieves the same recall: smallest wins
    everything = frozenset(cand.ids)
    result = tune_rrf(rankings, {"u": everything}, cand, [9, 3, 7], [0.8, 0.2], cutoff=len(cand))
    assert result == (3, 0.2, 1.0)


def test_tune_rrf_is_deterministic():
    cand, rankings, truths = tuning_fixture()
    grids = (range(1, 30), [i / 10 for i in range(11)])
    assert tune_rrf(rankings, truths, cand, *grids) == tune_rrf(rankings, truths, cand, *grids)


def test_tune_rrf_empty_dev_set_is_error():
    cand, rankings, truths = tuning_fixture()
    with pytest.raises(ValueError):
        tune_rrf({}, {}, cand, [60], [0.5])
    with pytest.raises(ValueError):
        tune_rrf(rankings, {"u": frozenset()}, cand, [60], [0.5])
