import functools
import random

import numpy as np
import pytest

from oracles import (
    MONDAY,
    BehaviorMatrix,
    PreferenceDicts,
    ProgramMeta,
    behavior_row,
    behavior_rows,
    brute_rank,
    brute_rrf,
    brute_two_stage,
    candidates,
    entry_sum,
    preference_model,
    program_table,
    random_instance,
    random_users,
    scalar_behavior,
    scalar_preference,
)
from tvrec import bundle, preference, synth
from tvrec.arrays import Rows
from tvrec.datamodel import SplitSpec, prepare
from tvrec.errors import DataError
from tvrec.evaluate import recall_at
from tvrec.preference import PreferenceModel, global_view
from tvrec.ranker import (
    Candidates,
    Ranking,
    TwoStageStats,
    _preference_order,
    _top_rows,
    build_candidates,
    build_item_index,
    rank_behavior,
    rank_preference,
    rrf,
    rrf_weighted,
    top_k,
    tune_rrf,
    two_stage,
    two_stage_block,
    user_blocks,
)
from tvrec.timegrid import SECONDS_PER_WEEK, TimeGrid

GRID = TimeGrid(n=672)


def meta(pid, channel="c1", start_slot=1, n_slots=2, offset=0):
    start = MONDAY + (start_slot - 1) * 900 + offset
    return ProgramMeta(pid, channel, start, start + n_slots * 900 - 1, "")


def global_model(user_vec, items):
    return PreferenceDicts(global_prefs={"u": user_vec}, slot_prefs={}, item_embeddings=items)


def ranked(cand, ranking):
    """Every row of ``ranking`` as (program id, score) pairs."""
    return top_k(cand, ranking, len(cand))


def ids(cand, ranking):
    return [pid for pid, _ in ranked(cand, ranking)]


def by_behavior(bm, cand):
    """``rank_behavior`` of a dict distribution."""
    return rank_behavior(behavior_row(bm, cand), cand)


def by_preference(model, cand):
    """``rank_preference`` of user "u" of a dict model."""
    return rank_preference(preference_model(model, cand), "u", cand)


def two_stage_of(bm, model, cand, k, stats=None):
    """``two_stage`` of a dict distribution and a dict model."""
    return two_stage(behavior_row(bm, cand), preference_model(model, cand), cand, k, stats)


def test_build_candidates_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate program ids"):
        build_candidates(program_table([meta("p1"), meta("p1")]), GRID)
    # A repeat is refused wherever it stands, not only next to its twin.
    with pytest.raises(DataError, match="duplicate program ids"):
        build_candidates(program_table([meta("p1"), meta("p2", start_slot=2), meta("p1", start_slot=3)]), GRID)


def test_build_candidates_keeps_the_table_rows_in_candidate_order():
    metas = [meta("B"), meta("C"), meta("A", start_slot=2)]
    assert build_candidates(program_table(metas), GRID).ids == ("B", "C", "A")
    # Rows out of (start, id) order are refused, by start and by id on a tie.
    for wrong in ([meta("A", start_slot=2), meta("B")], [meta("C"), meta("B")]):
        with pytest.raises(ValueError, match=r"not in \(start, id\) order"):
            build_candidates(program_table(wrong), GRID)


def test_cell_index_equals_a_walk_of_the_spans():
    # Random candidates, spans wrapping the week included: each cell lists
    # the (row, span entry) of every entry that holds it, in entry order.
    rng = random.Random(41)
    wrapped = 0
    for _ in range(80):
        grid = TimeGrid(n=rng.choice((4, 6, 8, 12)))
        channels = [f"c{j}" for j in range(rng.randint(1, 5))]
        metas = []
        for i in range(rng.randint(0, 40)):
            start = MONDAY + rng.randrange(SECONDS_PER_WEEK)
            end = start + rng.randrange(3 * grid.slot_len)
            metas.append(ProgramMeta(f"p{i:03d}", rng.choice(channels), start, end, ""))
        cand = candidates(metas, grid, channels)
        walk = [[] for _ in range(grid.n * cand.ncols)]
        flat, ptr = cand.span_flat.tolist(), cand.span_ptr.tolist()
        for row in range(len(cand)):
            cells = flat[ptr[row] : ptr[row + 1]]
            wrapped += cells != sorted(cells)
            for entry in range(ptr[row], ptr[row + 1]):
                walk[flat[entry]].append((row, entry))
        assert len(cand.cell_ptr) == len(walk) + 1
        for cell, pairs in enumerate(walk):
            lo, hi = cand.cell_ptr[cell], cand.cell_ptr[cell + 1]
            assert list(zip(cand.cell_row[lo:hi].tolist(), cand.cell_entry[lo:hi].tolist())) == pairs
        assert cand.start_cell.tolist() == [flat[ptr[row]] for row in range(len(cand))]
        assert not cand.repeats_a_cell()
    assert wrapped > 20


def test_build_candidates_lists_each_cell_of_a_span_once():
    # Just short of a week, from inside slot 1, the span reaches slot 1 again.
    start = MONDAY + 1
    cand = candidates([ProgramMeta("A", "c1", start, start + SECONDS_PER_WEEK - 1, "")], GRID)
    assert cand.span_flat.tolist() == list(range(GRID.n))
    assert not cand.repeats_a_cell()
    # One cell in two spans is no repeat; one cell twice in a span is.
    apart = Candidates(n_slots=4, ids=("A", "B"), channels=("c1",), span_flat=np.array([0, 3, 3, 0]),
                       span_ptr=np.array([0, 2, 4]))
    assert not apart.repeats_a_cell()
    twice = Candidates(n_slots=4, ids=("A",), channels=("c1",), span_flat=np.array([3, 0, 3]),
                       span_ptr=np.array([0, 3]))
    assert twice.repeats_a_cell()


def test_rank_behavior_orders_by_score():
    metas = [meta("A", start_slot=1), meta("B", start_slot=5)]
    bm = BehaviorMatrix("u", {(1, "c1"): 0.5, (5, "c1"): 0.3, (6, "c1"): 0.2})
    cand = candidates(metas, GRID, {"c1"})
    assert ranked(cand, by_behavior(bm, cand)) == [("A", 0.5), ("B", 0.3)]


def test_rank_behavior_tie_breaks_by_earlier_start_then_id():
    metas = [
        meta("B", start_slot=1, offset=0),
        meta("A", start_slot=1, offset=300),
        meta("C", start_slot=1, offset=0),
    ]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    cand = candidates(metas, GRID, {"c1"})
    assert ids(cand, by_behavior(bm, cand)) == ["B", "C", "A"]


def test_rank_behavior_all_zero_scores_sorted_by_start_then_id():
    rng = random.Random(1)
    metas = [
        meta(f"p{i:02d}", channel="c-unwatched", start_slot=rng.randint(1, 20)) for i in range(15)
    ]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    cand = candidates(metas, GRID, {"c1"})
    expected = [m.program for m in sorted(metas, key=lambda m: (m.start, m.program))]
    assert ids(cand, by_behavior(bm, cand)) == expected


def test_rank_preference_matches_dot_and_sort_oracle():
    items = {"A": {0: 1.0}, "B": {0: 0.5, 1: 0.5}, "C": {1: 1.0}}
    model = global_model({0: 1.0}, items)
    metas = [meta(p, start_slot=i + 1) for i, p in enumerate("ABC")]
    cand = candidates(metas, GRID, {"c1"})
    pairs = ranked(cand, by_preference(model, cand))
    assert [pid for pid, _ in pairs] == ["A", "B", "C"]
    assert [s for _, s in pairs] == pytest.approx([1.0, 0.5, 0.0])


def test_rank_preference_tie_breaks_by_start_time():
    items = {"A": {0: 1.0}, "B": {0: 1.0}}
    model = global_model({0: 1.0}, items)
    metas = [meta("A", start_slot=9), meta("B", start_slot=2)]
    cand = candidates(metas, GRID, {"c1"})
    assert ids(cand, by_preference(model, cand)) == ["B", "A"]


def test_rank_preference_indexed_path_matches_scalar_path():
    # The batched scores equal the oracle's scalar dot products exactly, and
    # the order is the oracle's (score desc, start asc, id asc) sort.
    rng = random.Random(17)
    for _ in range(60):
        grid, metas, bm, models = random_instance(rng)
        cand = candidates(metas, grid, {c for _, c in bm.probs})
        for model in models.values():
            got = ranked(cand, by_preference(model, cand))
            want = {m.program: scalar_preference(model, "u", m, grid) for m in metas}
            assert dict(got) == want
            assert [pid for pid, _ in got] == brute_rank(want, metas)


def random_embedding(rng, width, dims=60):
    """``width`` entries over random dimensions, with weights spread over 16
    orders of magnitude so that the order of a sum shows in its last bits."""
    return {d: rng.random() * 10.0 ** rng.randint(-8, 8) for d in rng.sample(range(dims), width)}


def entry_order_score(model, pid, start_slot):
    """User "u"'s score for ``pid`` by the preference rule: the products of
    its embedding entries added in entry order."""
    vec = model.slot_prefs.get("u", {}).get(start_slot, model.global_prefs["u"])
    return entry_sum(w * vec.get(d, 0.0) for d, w in model.item_embeddings[pid].items())


def test_rank_preference_adds_each_row_in_entry_order():
    # Embeddings of mixed widths up to 20, both in the pass over every row
    # and in the batch over the user's slots: each score equals the sum of
    # the row's products in embedding order, bit for bit.
    rng = random.Random(8)
    for _ in range(20):
        starts = [rng.randint(1, 30) for _ in range(40)]
        metas = [meta(f"p{i:02d}", start_slot=s) for i, s in enumerate(starts)]
        items = {m.program: random_embedding(rng, rng.randint(1, 20)) for m in metas}
        slot_vecs = {s: random_embedding(rng, 30) for s in rng.sample(starts, 8)}
        model = PreferenceDicts({"u": random_embedding(rng, 30)}, {"u": slot_vecs}, items)
        cand = candidates(metas, GRID, {"c1"})
        got = rank_preference(preference_model(model, cand), "u", cand).scores
        want = [entry_order_score(model, pid, starts[int(pid[1:])]) for pid in cand.ids]
        assert got.tobytes() == np.array(want).tobytes()


def test_two_stage_scores_a_lone_row_in_entry_order(monkeypatch):
    # The user's one run holds one row, so two-stage scores a batch of one
    # row: numpy would sum it pairwise, and its score must still be the sum
    # of its products in embedding order.
    batches = []
    scores = PreferenceModel.scores

    def recording(self, u, rows, starts):
        batches.append(scores(self, u, rows, starts))
        return batches[-1]

    monkeypatch.setattr(PreferenceModel, "scores", recording)
    rng = random.Random(12)
    metas = [meta("A", start_slot=1, n_slots=1), meta("B", start_slot=5, n_slots=1)]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    for _ in range(30):
        items = {"A": random_embedding(rng, rng.randint(10, 40)), "B": random_embedding(rng, 3)}
        slot_vecs = {1: random_embedding(rng, 30)} if rng.random() < 0.5 else {}
        model = PreferenceDicts({"u": random_embedding(rng, 30)}, {"u": slot_vecs}, items)
        cand = candidates(metas, GRID, {"c1"})
        batches.clear()
        assert ids(cand, two_stage_of(bm, model, cand, 1)) == ["A"]
        assert [b.tobytes() for b in batches] == [np.array([entry_order_score(model, "A", 1)]).tobytes()]


def test_a_wide_embedding_moves_no_other_score():
    # One candidate with a 40-entry embedding widens the padding of every
    # row; every other row's score stays the same, bit for bit, both those
    # scored against the global vector and those of the user's slots.
    rng = random.Random(40)
    starts = [rng.randint(1, 30) for _ in range(150)]
    metas = [meta(f"p{i:03d}", start_slot=s) for i, s in enumerate(starts)]
    items = {m.program: random_embedding(rng, rng.randint(1, 15)) for m in metas}
    slot_vecs = {s: random_embedding(rng, 40) for s in rng.sample(starts, 10)}
    model = PreferenceDicts({"u": random_embedding(rng, 40)}, {"u": slot_vecs}, items)

    def scores_by_id(metas, model):
        cand = candidates(metas, GRID, {"c1"})
        return dict(zip(cand.ids, rank_preference(preference_model(model, cand), "u", cand).scores.tolist()))

    before = scores_by_id(metas, model)
    wide = PreferenceDicts(model.global_prefs, model.slot_prefs, {**items, "wide": random_embedding(rng, 40)})
    after = scores_by_id([*metas, meta("wide", start_slot=starts[0])], wide)
    del after["wide"]
    assert np.array(list(after.values())).tobytes() == np.array([before[pid] for pid in after]).tobytes()


@pytest.mark.parametrize(
    "widths",
    [
        [0, 3, 0, 5, 1, 0, 5, 0],
        [4, 4, 7, 2, 4, 2, 1],
        [6] * 25,
        [],
        [0, 0, 0],
        [15, 3, 15, 8, 1, 15],
        [2, 9, 20, 9],
    ],
    ids=[
        "empty embeddings",
        "a bucket of one row",
        "every row one length",
        "no candidates",
        "no entries",
        "rows as wide as the widest",
        "a lone row as wide as the widest",
    ],
)
def test_length_buckets_add_each_row_in_entry_order(widths):
    # The pass over every row sums each length bucket on its own: each score
    # equals the row's products added in embedding order, bit for bit, and a
    # row with an empty embedding scores 0.0.
    rng = random.Random(len(widths))
    for _ in range(10):
        metas = [meta(f"p{i:02d}", start_slot=rng.randint(1, 30)) for i in range(len(widths))]
        items = {m.program: random_embedding(rng, w) for m, w in zip(metas, widths)}
        model = global_model(random_embedding(rng, 40), items)
        cand = candidates(metas, GRID, {"c1"})
        index = preference_model(model, cand).items
        vec = np.zeros(61)
        vec[list(model.global_prefs["u"])] = list(model.global_prefs["u"].values())
        want = [entry_order_score(model, pid, 1) for pid in cand.ids]
        assert index.dots(vec).tobytes() == np.array(want, dtype=np.float64).tobytes()
        lengths = sorted({w for w in widths if w})
        assert [idx.shape[0] for idx in index.bucket_idx] == lengths
        assert [idx.shape[1] for idx in index.bucket_idx] == [widths.count(w) for w in lengths]


def test_length_buckets_hold_intp_codes_in_c_order():
    # np.take converts any other index dtype on every call, which made the
    # pass over every row up to three times slower; the padded codes keep
    # the embeddings' own dtype.
    rng = np.random.default_rng(5)
    lens = rng.integers(0, 16, size=300)
    ptr = np.concatenate(([0], np.cumsum(lens)))
    embeddings = Rows(ptr, rng.integers(0, 500, size=ptr[-1]).astype(np.uint16), rng.random(ptr[-1]))
    metas = [meta(f"p{i:03d}", start_slot=int(rng.integers(1, 30))) for i in range(len(lens))]
    index = build_item_index(embeddings, candidates(metas, GRID, {"c1"}))
    assert index.idx.dtype == np.uint16
    assert len(index.bucket_idx) == len(index.bucket_weights) == len(set(lens.tolist()) - {0})
    for idx, weights in zip(index.bucket_idx, index.bucket_weights):
        assert idx.dtype == np.intp and idx.flags.c_contiguous
        assert weights.dtype == np.float64 and weights.flags.c_contiguous
        assert idx.shape == weights.shape
    assert sorted(index.bucket_rows.tolist()) == np.flatnonzero(lens).tolist()


def test_two_stage_hand_trace():
    # stage-1 order [A(w1,c1,.5), B(w1,c1,.5), C(w2,c1,.3)]; preference favors B.
    metas = [
        meta("A", start_slot=1, n_slots=1),
        meta("B", start_slot=1, n_slots=1, offset=300),
        meta("C", start_slot=2, n_slots=1, offset=300),
    ]
    bm = BehaviorMatrix("u", {(1, "c1"): 0.5, (2, "c1"): 0.3})
    model = global_model({0: 1.0}, {"A": {0: 0.2}, "B": {0: 0.9}, "C": {0: 0.1}})
    cand = candidates(metas, GRID, {"c1"})
    assert ids(cand, two_stage_of(bm, model, cand, 2)) == ["B", "C"]


def test_two_stage_distinct_group_keys_reduce_to_behavior_prefix():
    rng = random.Random(23)
    for _ in range(40):
        grid, metas, bm, models = random_instance(rng)
        by_key = {}  # keep one program per group key so every run is a singleton
        for m in metas:
            _, slot, channel = scalar_behavior(bm, m, grid)
            by_key.setdefault((slot, channel), m)
        distinct = list(by_key.values())
        cand = candidates(distinct, grid, {c for _, c in bm.probs})
        k = rng.randint(1, len(distinct))
        got = top_k(cand, two_stage_of(bm, models["global"], cand, k), k)
        assert got == top_k(cand, by_behavior(bm, cand), k)


def test_two_stage_k1_single_group_takes_preference_maximum():
    metas = [meta(p, start_slot=1, n_slots=1, offset=o) for p, o in (("A", 0), ("B", 100), ("C", 200))]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    model = global_model({0: 1.0}, {"A": {0: 0.3}, "B": {0: 0.8}, "C": {0: 0.5}})
    cand = candidates(metas, GRID, {"c1"})
    assert ids(cand, two_stage_of(bm, model, cand, 1)) == ["B"]


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
    cand = candidates(metas, GRID, {"c1"})
    for k in (1, 5):
        assert ids(cand, two_stage_of(bm, model, cand, k)) == ["C"]


def test_two_stage_flushes_pending_run_at_exhaustion():
    metas = [meta("A", start_slot=1, n_slots=1), meta("B", start_slot=1, n_slots=1, offset=300)]
    bm = BehaviorMatrix("u", {(1, "c1"): 1.0})
    model = global_model({0: 1.0}, {"A": {0: 0.1}, "B": {0: 0.9}})
    cand = candidates(metas, GRID, {"c1"})
    assert ids(cand, two_stage_of(bm, model, cand, 5)) == ["B"]


def test_two_stage_emits_behavior_scores_for_winners():
    metas = [meta("A", start_slot=3, n_slots=1)]
    bm = BehaviorMatrix("u", {(3, "c1"): 0.7, (1, "c1"): 0.3})
    model = global_model({0: 1.0}, {"A": {0: 0.2}})
    cand = candidates(metas, GRID, {"c1"})
    assert top_k(cand, two_stage_of(bm, model, cand, 1), 1) == [("A", 0.7)]


def test_wrapped_span_groups_under_its_first_slot_at_equal_probability():
    # A spans slot 672 -> slot 1 with the user's probability equal at both
    # ends: its behavior score is that probability, and its group key is
    # (672, c1), the first of the two in span order, not the lower cell
    # (1, c1). So A shares a run with B, in slot 672, and not with C, in
    # slot 1; A wins its run on preference.
    metas = [
        meta("C", start_slot=1, n_slots=1),
        meta("A", start_slot=672, n_slots=2),
        meta("B", start_slot=672, n_slots=1),
    ]
    bm = BehaviorMatrix("u", {(1, "c1"): 0.5, (672, "c1"): 0.5})
    model = global_model({0: 1.0}, {"A": {0: 0.9}, "B": {0: 0.5}, "C": {0: 0.1}})
    cand = candidates(metas, GRID, {"c1"})
    assert cand.span_flat.tolist() == [0, 671, 0, 671]
    assert ranked(cand, by_behavior(bm, cand)) == [("C", 0.5), ("A", 0.5), ("B", 0.5)]
    stats = TwoStageStats()
    assert top_k(cand, two_stage_of(bm, model, cand, 3, stats), 3) == [("C", 0.5), ("A", 0.5)]
    assert stats.preference_evals == 3


def test_two_stage_matches_brute_force_reference():
    rng = random.Random(99)
    for _ in range(250):
        grid, metas, bm, models = random_instance(rng)
        cand = candidates(metas, grid, {c for _, c in bm.probs})
        k = rng.choice((1, 2, 5, 30))
        mode = rng.choice(("global", "time-aware"))
        got = top_k(cand, two_stage_of(bm, models[mode], cand, k), k)
        want = brute_two_stage(bm, models[mode], metas, grid, k)
        assert got == want


def test_two_stage_never_emits_two_items_from_one_run():
    rng = random.Random(7)
    for _ in range(50):
        grid, metas, bm, models = random_instance(rng)
        cand = candidates(metas, grid, {c for _, c in bm.probs})
        winners = ids(cand, two_stage_of(bm, models["global"], cand, 30))
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
    cand = candidates(metas, grid, {c for _, c in bm.probs})
    stats = TwoStageStats()
    two_stage_of(bm, models["global"], cand, 1, stats)
    # one emitted group: only the first run plus one trigger item get scored
    assert 1 <= stats.preference_evals <= len(metas)
    full = TwoStageStats()
    two_stage_of(bm, models["global"], cand, len(metas), full)
    assert full.preference_evals <= len(metas)


def test_two_stage_k_must_be_positive():
    cand = candidates([meta("A")], GRID, {"c1"})
    with pytest.raises(ValueError):
        two_stage_of(BehaviorMatrix("u", {(1, "c1"): 1.0}), global_model({}, {"A": {}}), cand, 0)


# the block scan


def block_lists(behavior, users, model, cand, k, stats=None):
    """``two_stage_block`` over ``users`` as one (rows, score bytes) pair per user."""
    got = two_stage_block(behavior, np.asarray(users, dtype=np.int64), model, cand, k, stats)
    return [
        (got.col[lo:hi].tolist(), got.val[lo:hi].tobytes()) for lo, hi in zip(got.ptr.tolist(), got.ptr[1:].tolist())
    ]


def assert_blocks_equal_two_stage(behavior, model, cand, k):
    """The block scan gives every user ``two_stage``'s winners and score bits
    and the same preference evaluations, in blocks of 1, 2, 7 and all users,
    and in one block of the users in reverse order."""
    n_users = len(behavior.users)
    stats = TwoStageStats()
    want = []
    for user in behavior.users:
        ranking = two_stage(behavior.of(user), model, cand, k, stats)
        want.append((ranking.rows.tolist(), ranking.scores[ranking.rows].tobytes()))
    for size in (1, 2, 7, n_users):
        block_stats = TwoStageStats()
        got = []
        for lo in range(0, n_users, size):
            got += block_lists(behavior, range(lo, min(lo + size, n_users)), model, cand, k, block_stats)
        assert got == want, f"blocks of {size}"
        assert block_stats.preference_evals == stats.preference_evals
    assert block_lists(behavior, range(n_users)[::-1], model, cand, k) == want[::-1]
    return want


def test_block_scan_equals_two_stage_on_edge_users():
    metas = [
        meta("A", start_slot=1, n_slots=1),
        meta("B", start_slot=1, n_slots=1, offset=450),
        meta("D", "c2", start_slot=2, n_slots=2),
        *(meta(f"C{i}", start_slot=3, n_slots=1, offset=100 * i) for i in range(4)),
        meta("E", "c2", start_slot=5, n_slots=1),
        meta("F", start_slot=10, n_slots=3),
        meta("W", start_slot=672, n_slots=2),
    ]
    cand = candidates(metas, GRID, {"c1", "c2", "c3"})
    every_cell = {(c // cand.ncols + 1, cand.channels[c % cand.ncols]) for c in cand.span_flat.tolist()}
    bms = [
        # Touches every row, so it reads no zero row.
        BehaviorMatrix("all", {key: 1 / len(every_cell) for key in every_cell}),
        # Touches no row: its scan starts in the zero rows.
        BehaviorMatrix("none", {(100, "c3"): 1.0}),
        # One row, then zero rows in which C0..C3 form one run.
        BehaviorMatrix("one", {(5, "c2"): 1.0}),
        # W wraps the week from slot 672 into slot 1, at equal probabilities.
        BehaviorMatrix("wrap", {(1, "c1"): 0.5, (672, "c1"): 0.5}),
        BehaviorMatrix("noslot", {(3, "c1"): 0.25, (2, "c2"): 0.75}),
    ]
    items = {m.program: {i % 3: 0.5, 3: 0.25 * (i % 2)} for i, m in enumerate(metas)}
    users = [bm.user for bm in bms]
    global_prefs = {user: {j % 4: 1.0, (j + 1) % 4: 0.5} for j, user in enumerate(users)}
    slot_prefs = {user: {1: {0: 1.0}, 3: {3: 2.0}, 672: {2: 1.0}} for user in users if user != "noslot"}
    behavior = behavior_rows(bms, cand)
    short = 0
    for slots in ({}, slot_prefs):
        model = preference_model(PreferenceDicts(global_prefs, slots, items), cand)
        for k in (1, 2, 3, 5, 30):
            want = assert_blocks_equal_two_stage(behavior, model, cand, k)
            short += sum(len(rows) < k for rows, _ in want)
    assert short  # k above the user's runs gives a short list
    u = model.user_row("noslot")
    assert model.prefs.slot_ptr[u] == model.prefs.slot_ptr[u + 1] and len(model.prefs.slots)
    assert rank_behavior(behavior.of("all"), cand).scores.all()
    assert not rank_behavior(behavior.of("none"), cand).scores.any()
    assert len(set(cand.start_cell[[cand.ids.index(f"C{i}") for i in range(4)]].tolist())) == 1
    assert (cand.span_flat[cand.span_ptr[cand.ids.index("W")] :] // cand.ncols + 1).tolist() == [672, 1]


def test_block_scan_equals_brute_force_for_users_sharing_candidates():
    rng = random.Random(20_240_402)
    for _ in range(300):
        grid, metas, _, _ = random_instance(rng)
        channels = sorted({m.channel for m in metas} | {"cx"})
        bms, models = random_users(rng, grid, metas, channels, rng.randint(1, 6))
        cand = candidates(metas, grid, channels)
        behavior = behavior_rows(bms, cand)
        k = rng.choice((1, 3, 10, 30))
        for mode in ("global", "time-aware"):
            model = preference_model(models[mode], cand)
            got = block_lists(behavior, range(len(bms)), model, cand, k)
            for bm, (rows, score_bytes) in zip(bms, got):
                scores = np.frombuffer(score_bytes).tolist()
                assert [(cand.ids[r], s) for r, s in zip(rows, scores)] == brute_two_stage(
                    bm, models[mode], metas, grid, k
                )
            assert_blocks_equal_two_stage(behavior, model, cand, k)


@pytest.fixture(scope="module")
def synthetic_world():
    """The bundle of a world of the CLI tests' workspace shape and seed, built in-process."""
    cfg = synth.SynthConfig(n_users=25, n_channels=4, n_topics=5, weeks_train=2, weeks_test=1, rng_seed=3)
    world = synth.gen_world(cfg)
    spec = SplitSpec(cfg.t_split, cfg.weeks_train * SECONDS_PER_WEEK, cfg.weeks_test * SECONDS_PER_WEEK)
    prep, _ = prepare(synth.gen_logs(world), world.programs, cfg.grid, spec)
    return bundle.build(prep, cfg.grid, {})[0]


@pytest.mark.parametrize("buffer_vectors", [None, 1, 3])
def test_block_scan_equals_two_stage_on_a_synthetic_world(synthetic_world, monkeypatch, buffer_vectors):
    # The block batches scored with the buffer as it is, or holding 1 or 3 vectors.
    built = synthetic_world
    if buffer_vectors:
        monkeypatch.setattr(preference, "BUFFER_FLOATS", buffer_vectors * built.dims)
    for model in (built.model, global_view(built.model)):
        assert len(model.prefs.slots) == (model is built.model) * len(built.prefs.slots)
        for k in (1, 10, 30):
            assert_blocks_equal_two_stage(built.behavior, model, built.cand, k)


@pytest.mark.parametrize("buffer_vectors", [None, 1, 3])
def test_block_scores_equal_per_user_scores(synthetic_world, monkeypatch, buffer_vectors):
    # Every user against every row, in both modes: the same bits as one
    # `scores` batch per user, whichever vector each row reads.
    built = synthetic_world
    if buffer_vectors:
        monkeypatch.setattr(preference, "BUFFER_FLOATS", buffer_vectors * built.dims)
    rows = np.arange(len(built.cand))
    starts = built.cand.start_slots(rows)
    for model in (built.model, global_view(built.model)):
        users = np.arange(len(model.prefs.users))
        want = np.concatenate([model.scores(u, rows, starts) for u in users.tolist()])
        got = model.block_scores(np.repeat(users, len(rows)), np.tile(rows, len(users)), np.tile(starts, len(users)))
        assert got.tobytes() == want.tobytes()
    # The last user reads rows of the last slot without a vector there.
    p = built.model.prefs
    assert built.cand.n_slots not in p.slots[p.slot_ptr[-2] :].tolist() and built.cand.n_slots in starts.tolist()


def test_user_blocks_cover_the_users_in_order():
    rng = random.Random(5)
    grid, metas, _, _ = random_instance(rng, max_programs=50)
    channels = sorted({m.channel for m in metas})
    bms, _ = random_users(rng, grid, metas, channels, 9)
    cand = candidates(metas, grid, channels)
    blocks = list(user_blocks(behavior_rows(bms, cand), cand))
    assert np.concatenate(blocks).tolist() == list(range(9))
    assert all(len(block) for block in blocks)


def test_block_scan_k_must_be_positive():
    cand = candidates([meta("A")], GRID, {"c1"})
    behavior = behavior_rows([BehaviorMatrix("u", {(1, "c1"): 1.0})], cand)
    with pytest.raises(ValueError):
        two_stage_block(behavior, np.arange(1), preference_model(global_model({}, {"A": {}}), cand), cand, 0)


# fusion


def ranking_of(cand, pids, scores=None):
    """A ranking listing ``pids`` in order, with scores indexed by row;
    fusion reads only the rows."""
    rows = np.asarray([cand.ids.index(p) for p in pids], dtype=np.int64)
    return Ranking(rows, np.zeros(len(cand)) if scores is None else np.asarray(scores))


def fused_fixture():
    metas = [meta(p, start_slot=i + 1) for i, p in enumerate(("A", "B", "C"))]
    cand = candidates(metas, GRID, {"c1"})
    kb = ranking_of(cand, "ABC", [0.9, 0.5, 0.1])
    kp = ranking_of(cand, "CBA", [0.2, 0.6, 0.8])
    return cand, kb, kp


def test_rrf_score_arithmetic():
    cand, kb, kp = fused_fixture()
    fused = rrf(kb, kp, cand, eta=60, k=len(cand))
    scores = dict(ranked(cand, fused))
    assert scores["A"] == pytest.approx(1 / 61 + 1 / 63)
    assert scores["A"] == pytest.approx(0.032266, abs=1e-6)


def test_rrf_dominance_is_monotone():
    rng = random.Random(5)
    cand, kb, kp = fused_fixture()
    for eta in (0, 1, 17, 60, 1000):
        fused = ids(cand, rrf(kb, kp, cand, eta=eta, k=len(cand)))
        assert fused.index("B") < fused.index("C") or fused.index("A") < fused.index("C")
        # A is ranked 1st and 3rd; B is 2nd and 2nd; C is 3rd and 1st.
        # An item ranked better in both lists must come first: none here, so
        # just check an explicitly dominated pair built on the fly.
    kb2 = ranking_of(cand, "ABC", [3.0, 2.0, 1.0])
    kp2 = ranking_of(cand, "ABC", [3.0, 2.0, 1.0])
    for eta in (0, 0.5, 6, 1e6):
        assert ids(cand, rrf(kb2, kp2, cand, eta=eta, k=len(cand))) == ["A", "B", "C"]


def test_rrf_large_eta_matches_brute_force_ordering():
    rng = random.Random(13)
    for _ in range(30):
        grid, metas, bm, _ = random_instance(rng, max_programs=20)
        cand = candidates(metas, grid, {c for _, c in bm.probs})
        order = [m.program for m in sorted(metas, key=lambda m: (m.start, m.program))]
        perm_b = rng.sample(order, len(order))
        perm_p = rng.sample(order, len(order))
        kb = ranking_of(cand, perm_b)
        kp = ranking_of(cand, perm_p)
        eta = 1e6
        pos_b = {p: i + 1 for i, p in enumerate(perm_b)}
        pos_p = {p: i + 1 for i, p in enumerate(perm_p)}
        scores = {p: 1 / (pos_b[p] + eta) + 1 / (pos_p[p] + eta) for p in order}
        assert ids(cand, rrf(kb, kp, cand, eta=eta, k=len(cand))) == brute_rank(scores, metas)


def test_rrf_matches_the_brute_force_oracle_bit_for_bit():
    # Every row's fused score equals the oracle's Python-float sum as bits,
    # and the rows follow the oracle's order, at k = 1, at a k whose k-th
    # score is tied and at k = n; tune_rrf, which gathers the weights by
    # rank, finds every one of the oracle's first k rows at each cell.
    rng = random.Random(41)
    tied_ks = 0
    for _ in range(40):
        grid, metas, bm, models = random_instance(rng, max_programs=30)
        cand = candidates(metas, grid, {c for _, c in bm.probs})
        model = models[rng.choice(("global", "time-aware"))]
        kb, kp = by_behavior(bm, cand), by_preference(model, cand)
        n = len(cand)
        for eta in (0, 0.5, 60, 1e6):
            fusions = [(functools.partial(rrf, kb, kp, cand, eta), None, 1.0, 1.0)]
            for xi in (0, 0.25, 0.5, 1):
                fusions.append((functools.partial(rrf_weighted, kb, kp, cand, eta, xi), xi, xi, 1.0 - xi))
            for fuse, xi, w_b, w_p in fusions:
                want = brute_rrf(bm, model, metas, grid, eta, w_b, w_p)
                order = [pid for pid, _ in want]
                bits = np.asarray([dict(want)[pid] for pid in cand.ids]).view(np.int64)
                ks = {1, n}
                tied = [i for i in range(1, n) if want[i][1] == want[i - 1][1]]
                if tied:
                    ks.add(tied[0])
                    tied_ks += 1
                for k in sorted(ks):
                    got = fuse(k=k)
                    assert k <= len(got.rows) <= n
                    assert [cand.ids[r] for r in got.rows] == order[: len(got.rows)]
                    assert got.scores.view(np.int64).tolist() == bits.tolist()
                    if xi is not None:
                        truth = {"u": frozenset(order[:k])}
                        assert tune_rrf({"u": (kb, kp)}, truth, cand, [eta], [xi], cutoff=k) == (eta, xi, 1.0)
    assert tied_ks > 0


def test_rrf_rejects_mismatched_item_sets():
    # Each bad ranking is named, in either argument position: one too short,
    # one listing a row twice, and rows outside the candidate set: 3, 7 and
    # -4, where a bare scatter raises IndexError, not ValueError, and -1,
    # which a bare scatter would wrap onto the last row.
    cand, kb, kp = fused_fixture()
    bad = {
        "covers 2 rows, expected 3": Ranking(kb.rows[:2], kb.scores),
        "lists a row twice": ranking_of(cand, "AAB"),
        **{
            f"has a row outside the candidate set ({outside})": Ranking(np.asarray([0, 1, outside]), kb.scores)
            for outside in (3, 7, -1, -4)
        },
    }
    for what, ranking in bad.items():
        message = what.split(" (")[0]
        for fuse in (functools.partial(rrf, k=len(cand)), functools.partial(rrf_weighted, xi=0.3, k=1)):
            with pytest.raises(ValueError, match=f"^behavior ranking {message}"):
                fuse(ranking, kp, cand)
            with pytest.raises(ValueError, match=f"^preference ranking {message}"):
                fuse(kb, ranking, cand)
            with pytest.raises(ValueError, match=f"^behavior ranking {message}"):
                fuse(ranking, ranking, cand)
        with pytest.raises(ValueError, match=f"^preference ranking {message}"):
            tune_rrf({"u": (kb, ranking)}, {"u": {"A"}}, cand, [60], [0.5])


def test_rrf_weighted_extremes_follow_single_rankers():
    rng = random.Random(21)
    for _ in range(30):
        grid, metas, bm, models = random_instance(rng, max_programs=25)
        cand = candidates(metas, grid, {c for _, c in bm.probs})
        kb = by_behavior(bm, cand)
        kp = by_preference(models["global"], cand)
        eta = rng.randint(1, 100)
        n = len(cand)
        assert ids(cand, rrf_weighted(kb, kp, cand, eta=eta, xi=1.0, k=n)) == ids(cand, kb)
        assert ids(cand, rrf_weighted(kb, kp, cand, eta=eta, xi=0.0, k=n)) == ids(cand, kp)
        assert ids(cand, rrf_weighted(kb, kp, cand, eta=eta, xi=0.5, k=n)) == ids(
            cand, rrf(kb, kp, cand, eta=eta, k=n)
        )


def test_rrf_every_k_is_a_prefix_of_the_full_order():
    # At xi = 0.5 the fused score is symmetric in (rank_b, rank_p), so rows
    # with swapped rank pairs tie; with kp the reverse of kb every row but
    # the middle one has such a partner.
    rng = random.Random(31)
    for trial in range(40):
        grid, metas, bm, models = random_instance(rng, max_programs=30)
        cand = candidates(metas, grid, {c for _, c in bm.probs})
        n = len(cand)
        kb = by_behavior(bm, cand)
        kp = Ranking(kb.rows[::-1].copy(), kb.scores) if trial % 2 else by_preference(models["global"], cand)
        eta = rng.choice((0, 1, 60))
        weighted = functools.partial(rrf_weighted, kb, kp, cand, eta=eta, xi=0.5)
        for fuse in (weighted, functools.partial(rrf, kb, kp, cand, eta=eta)):
            full = fuse(k=n)
            assert sorted(full.rows.tolist()) == list(range(n))
            for k in range(1, n + 1):
                top = fuse(k=k)
                m = len(top.rows)
                assert k <= m <= n
                assert top.rows.tolist() == full.rows[:m].tolist()
                assert np.array_equal(top.scores, full.scores)
                assert top.scores[top.rows[-1]] == full.scores[full.rows[k - 1]]
                if m < n:
                    assert full.scores[full.rows[m]] < full.scores[full.rows[k - 1]]


def test_rrf_rejects_k_below_one():
    cand, kb, kp = fused_fixture()
    for k in (0, -1):
        with pytest.raises(ValueError):
            rrf(kb, kp, cand, k=k)


def _stable_order(x):
    return np.argsort(-x, kind="stable")


SPECIAL_SCORES = [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 0.25, 1e-300, 3.5]


NEAR_TIE_BASES = [5e-324, 2.2250738585072014e-308, 1e-300, 0.3, 1.0, 3.5, 1e300, np.finfo(float).max]


def _near_ties(rng, n):
    """``n`` scores drawn from runs of ``np.nextafter`` neighbours around a
    few bases, subnormal to the largest float, of both signs, repeats
    included: scores that differ only in their last bits."""
    runs = []
    for base in rng.choice(NEAR_TIE_BASES, size=int(rng.integers(1, 4))):
        sign = rng.choice((-1.0, 1.0))
        run = [sign * base]
        for _ in range(int(rng.integers(1, 40))):
            run.append(np.nextafter(run[-1], -sign * np.inf))
        runs.extend(run)
    return rng.choice(np.asarray(runs), size=n)


def _tie_heavy_vectors(rng):
    """Seeded score vectors: few distinct values, signed zeros, infinities,
    lengths 0 and 1, distinct floats, and runs of floats one ulp apart,
    among them at lengths 2^m - 1, 2^m and 2^m + 1, where the row field of
    a packed (score, row) key changes width."""
    yield np.zeros(0)
    yield np.asarray([0.5])
    yield np.asarray([-0.0, 0.0, -0.0, 0.0])
    yield np.asarray([np.inf, 1.0, -np.inf, np.inf, 0.0, -0.0, -np.inf])
    for _ in range(300):
        n = int(rng.integers(0, 300))
        pool = rng.choice(SPECIAL_SCORES, size=int(rng.integers(1, 9)))
        x = rng.choice(pool, size=n)
        if rng.random() < 0.5:
            x = np.where(rng.random(n) < 0.4, rng.random(n).round(2), x)
        yield x
    for _ in range(20):
        yield rng.standard_normal(int(rng.integers(1, 2000)))
    for m in (1, 2, 3, 5, 8, 11):
        for n in (2**m - 1, 2**m, 2**m + 1):
            x = _near_ties(rng, n)
            if n > 4:
                x[rng.random(n) < 0.3] = rng.choice(SPECIAL_SCORES)
            yield x
    for _ in range(60):
        yield _near_ties(rng, int(rng.integers(2, 600)))


def test_preference_order_equals_the_stable_sort():
    for x in _tie_heavy_vectors(np.random.default_rng(19)):
        order = _preference_order(x)
        assert order.dtype == np.int64
        assert order.tolist() == _stable_order(x).tolist(), x


def _real_shaped_vectors(rng):
    """Seeded score vectors shaped like a catalogue's preference scores: 30
    to 60 % zeros, -0.0 among them, a handful of tied positive scores and
    some negative scores."""
    for _ in range(40):
        n = int(rng.integers(50, 3000))
        x = rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n)
        zero = rng.permutation(n) < int(n * rng.uniform(0.3, 0.6))
        x[zero] = np.where(rng.random(zero.sum()) < 0.3, -0.0, 0.0)
        x[np.flatnonzero(zero)[0]] = -0.0
        nonzero = rng.permutation(np.flatnonzero(~zero))
        x[nonzero[: int(rng.integers(1, 20))]] *= -1.0
        positive = nonzero[20:]
        for _ in range(int(rng.integers(1, 6))):
            tie = rng.choice(positive, size=int(rng.integers(2, 5)), replace=False)
            x[tie] = x[tie[0]]
        yield x


def test_preference_order_equals_the_stable_sort_on_real_shaped_scores():
    for x in _real_shaped_vectors(np.random.default_rng(29)):
        positive = np.sort(x[x > 0])
        assert (x == 0).mean() >= 0.3 and np.signbit(x[x == 0]).any() and (x < 0).any()
        assert (positive[1:] == positive[:-1]).any()
        assert _preference_order(x).tolist() == _stable_order(x).tolist()


def test_top_rows_is_the_prefix_of_the_full_order():
    rng = np.random.default_rng(23)
    for x in _tie_heavy_vectors(rng):
        n = len(x)
        full = _stable_order(x)
        ks = {1, n, n + 1, n + 7}
        if n:
            # a k whose k-th score is tied with its neighbours
            values, counts = np.unique(x, return_counts=True)
            if (counts > 1).any():
                tied = values[counts > 1][0]
                ks.add(int(np.flatnonzero(x[full] == tied)[0]) + 1)
            ks.add(int(rng.integers(1, n + 1)))
        for k in sorted(ks - {0}):
            # Any k distinct rows bound the k-th best score from below; the
            # true top k bound it tightly.
            top = _top_rows(x, k, [rng.permutation(n)[:k]])
            assert _top_rows(x, k, [full[:k], rng.permutation(n)[:k]]).tolist() == top.tolist()
            m = len(top)
            assert min(k, n) <= m <= n
            assert top.tolist() == full[:m].tolist()
            if k < m:
                assert (x[top[k - 1 :]] == x[full[k - 1]]).all()
            if m < n:
                assert x[full[m]] < x[full[min(k, n) - 1]]


def test_rrf_weighted_validates_hyperparameters():
    cand, kb, kp = fused_fixture()
    with pytest.raises(ValueError):
        rrf_weighted(kb, kp, cand, eta=-1, k=len(cand))
    with pytest.raises(ValueError):
        rrf_weighted(kb, kp, cand, xi=1.5, k=len(cand))


def test_rankers_are_deterministic():
    rng = random.Random(77)
    grid, metas, bm, models = random_instance(rng)
    cand = candidates(metas, grid, {c for _, c in bm.probs})
    model = preference_model(models["time-aware"], cand)
    assert ranked(cand, by_behavior(bm, cand)) == ranked(cand, by_behavior(bm, cand))
    assert ranked(cand, rank_preference(model, "u", cand)) == ranked(cand, rank_preference(model, "u", cand))
    assert ranked(cand, two_stage_of(bm, models["global"], cand, 10)) == ranked(
        cand, two_stage_of(bm, models["global"], cand, 10)
    )


# tuning


def tuning_fixture():
    rng = random.Random(55)
    grid, metas, bm, models = random_instance(rng, max_programs=30)
    cand = candidates(metas, grid, {c for _, c in bm.probs})
    kb = by_behavior(bm, cand)
    kp = by_preference(models["global"], cand)
    truth = frozenset(pid for pid, _ in top_k(cand, kb, 4))
    return cand, {"u": (kb, kp)}, {"u": truth}


def fused_recall(cand, rankings, truths, eta, xi, cutoff):
    """Recall at ``cutoff`` of the weighted-RRF list that recommend writes."""
    fused = rrf_weighted(*rankings["u"], cand, eta=eta, xi=xi, k=len(cand))
    return recall_at(ranked(cand, fused), truths["u"], cutoff)


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


def test_tune_rrf_counts_a_repeated_truth_once():
    cand, rankings, truths = tuning_fixture()
    repeated = {"u": [*truths["u"], *truths["u"]]}
    grids = ([1, 42], [0.3, 0.7])
    assert tune_rrf(rankings, repeated, cand, *grids, cutoff=3) == tune_rrf(rankings, truths, cand, *grids, cutoff=3)


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
