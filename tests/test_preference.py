import random

import numpy as np
import pytest

from oracles import (
    MONDAY,
    PreferenceDicts,
    ProgramMeta,
    ViewingLog,
    behavior_dicts,
    behavior_matrix_dicts,
    candidates,
    embedding_rows,
    encode_dict,
    entry_sum,
    fit_dicts,
    l2_norm,
    log_table,
    masks,
    model_row,
    preference_dicts,
    preference_model,
    preference_vectors,
    program_rows,
    program_table,
    row_dicts,
    tensor_cells,
    tensor_dicts,
    term_counts,
)
from tvrec import synth
from tvrec.behavior import behavior_matrix
from tvrec.datamodel import SplitSpec, build_tensor, prepare
from tvrec.errors import DataError
from tvrec.preference import build, entry_sums, global_view
from tvrec.ranker import rank_preference
from tvrec.textenc import encode, fit
from tvrec.timegrid import SECONDS_PER_WEEK, TimeGrid

GRID = TimeGrid(n=672)


def meta(pid, start_slot=5, channel="c1"):
    start = MONDAY + (start_slot - 1) * 900
    return ProgramMeta(pid, channel, start, start + 1799, "")


def model_of(cells, embeddings):
    """What ``build`` makes of the cells and the dict embeddings, as dicts,
    with the embeddings."""
    return PreferenceDicts(*preference_vectors(build(cells, program_rows(cells, embeddings)), cells.users), embeddings)


def score(model, user, m):
    """The program's preference score, computed over a one-row candidate index."""
    cand = candidates([m], GRID)
    return float(rank_preference(preference_model(model, cand), model_row(model, user), cand).scores[0])


E1 = {0: 1.0}
E2 = {1: 1.0}


def test_single_program_user_vector_is_that_embedding():
    model = model_of(tensor_cells({"u": {("p1", 3, "c1"): 2}}), {"p1": E1})
    assert model.global_prefs["u"] == E1


def test_global_vector_is_plain_mean():
    tensor = tensor_cells({"u": {("p1", 3, "c1"): 1, ("p2", 7, "c2"): 1}})
    model = model_of(tensor, {"p1": E1, "p2": E2})
    assert model.global_prefs["u"] == {0: 0.5, 1: 0.5}


def test_repeat_views_do_not_upweight_distinct_items():
    tensor = tensor_cells({"u": {("p1", 3, "c1"): 99, ("p2", 7, "c2"): 1}})
    model = model_of(tensor, {"p1": E1, "p2": E2})
    assert model.global_prefs["u"] == {0: 0.5, 1: 0.5}


def test_time_aware_slot_sets_are_exact():
    by_user = {"u": {("p1", 5, "c1"): 1, ("p2", 9, "c1"): 1}}
    model = model_of(tensor_cells(by_user), {"p1": E1, "p2": E2})
    assert model.slot_prefs["u"][5] == E1
    assert model.slot_prefs["u"][9] == E2
    assert 6 not in model.slot_prefs["u"]
    # brute-force scan of the tensor reproduces the slot item sets
    for slot, vec in model.slot_prefs["u"].items():
        items = sorted({i for (i, w, _) in by_user["u"] if w == slot})
        expected = {}
        for i in items:
            for d, v in {"p1": E1, "p2": E2}[i].items():
                expected[d] = expected.get(d, 0.0) + v / len(items)
        assert vec == expected


def test_missing_embedding_error_lists_ids():
    tensor = tensor_cells({"u": {("p1", 5, "c1"): 1, ("pz-naked", 5, "c1"): 1}})
    with pytest.raises(DataError, match="pz-naked"):
        build(tensor, embedding_rows([E1]))  # a row for p1, the first id, only


def test_score_is_dot_product():
    tensor = tensor_cells({"u": {("p1", 5, "c1"): 1}})
    model = model_of(tensor, {"p1": {0: 1.0}, "px": {0: 0.5, 1: 0.5}})
    assert score(model, "u", meta("px")) == pytest.approx(0.5)


def test_score_orthogonal_is_zero():
    model = model_of(tensor_cells({"u": {("p1", 5, "c1"): 1}}), {"p1": {0: 1.0}, "px": {1: 1.0}})
    assert score(model, "u", meta("px")) == 0.0


def test_score_identical_unit_vectors_is_one():
    model = model_of(tensor_cells({"u": {("p1", 5, "c1"): 1}}), {"p1": {3: 1.0}, "px": {3: 1.0}})
    assert score(model, "u", meta("px")) == pytest.approx(1.0)


def test_time_aware_scoring_keys_on_start_slot_with_global_fallback():
    tensor = tensor_cells({"u": {("p1", 5, "c1"): 1, ("p2", 9, "c1"): 1}})
    embs = {"p1": E1, "p2": E2, "px": {0: 1.0, 1: 1.0}}
    model = model_of(tensor, embs)
    assert score(model, "u", meta("px", start_slot=5)) == pytest.approx(1.0)
    assert score(model, "u", meta("px", start_slot=9)) == pytest.approx(1.0)
    # slot 20 has no history: falls back to the global mean (0.5, 0.5)
    assert score(model, "u", meta("px", start_slot=20)) == pytest.approx(1.0)
    # p1 = (1, 0) scores 1 in its own slot 5 but only 0.5 against the mean
    assert score(model, "u", meta("p1", start_slot=5)) == pytest.approx(1.0)
    assert score(model, "u", meta("p1", start_slot=20)) == pytest.approx(0.5)


def test_unknown_user_is_error():
    # Behavior.of is the one lookup of a user by name; the rankers take rows.
    cells = tensor_cells({"u": {("p1", 5, "c1"): 1}})
    with pytest.raises(DataError, match="ghost"):
        behavior_matrix(cells).of("ghost")


def test_scaling_item_embeddings_scales_scores_and_keeps_argsort():
    rng = random.Random(6)
    items = {f"p{i}": {d: rng.random() for d in rng.sample(range(8), 3)} for i in range(20)}
    cells = {(f"p{i}", rng.randint(1, 10), "c1"): 1 for i in range(8)}
    tensor = tensor_cells({"u": cells})
    metas = [meta(f"p{i}", start_slot=rng.randint(1, 12)) for i in range(20)]
    lam = 3.7
    scaled = {pid: {d: lam * v for d, v in vec.items()} for pid, vec in items.items()}
    base_model = model_of(tensor, items)
    scaled_model = model_of(tensor, scaled)
    base = [score(base_model, "u", m) for m in metas]
    after = [score(scaled_model, "u", m) for m in metas]
    for b, a in zip(base, after):
        # user mean scales by lambda too, so scores scale by lambda^2
        assert a == pytest.approx(lam * lam * b, rel=1e-12)
    assert sorted(range(20), key=lambda i: -base[i]) == sorted(range(20), key=lambda i: -after[i])


def test_unit_norm_embeddings_bound_scores_by_one():
    rng = random.Random(8)
    def unit():
        vec = {d: rng.random() + 0.1 for d in rng.sample(range(10), 4)}
        norm = l2_norm(vec)
        return {d: v / norm for d, v in vec.items()}

    items = {f"p{i}": unit() for i in range(30)}
    cells = {(f"p{i}", rng.randint(1, 20), "c1"): 1 for i in range(12)}
    model = model_of(tensor_cells({"u": cells}), items)
    for i in range(30):
        s = score(model, "u", meta(f"p{i}", start_slot=rng.randint(1, 30)))
        assert abs(s) <= 1.0 + 1e-12


def test_build_is_independent_of_cell_insertion_order():
    # Shuffled logs number every name in another order of first appearance;
    # build_tensor still gives the same cells, in the same order, and the
    # vectors built from them are the same.
    rng = random.Random(3)
    logs = [
        ViewingLog(f"u{rng.randrange(4)}", f"p{rng.randrange(12)}", f"c{rng.randrange(3)}",
                   MONDAY + rng.randrange(2 * 86_400), 1000)
        for _ in range(80)
    ]
    shuffled = logs[:]
    rng.shuffle(shuffled)
    programs = program_table(meta(f"p{i}") for i in range(12))
    restrict = {"items": frozenset(programs.program_names), "users": frozenset({"u0", "u1", "u3"})}
    a, b = (
        build_tensor(t, programs, GRID, **masks(t, programs, **restrict)) for t in map(log_table, (logs, shuffled))
    )
    assert (a.users, a.program_names, a.channel_names) == (b.users, b.program_names, b.channel_names)
    for col in ("ptr", "program", "slot", "channel", "count"):
        x, y = getattr(a, col), getattr(b, col)
        assert x.dtype == y.dtype and np.array_equal(x, y), col
    items = {f"p{i}": {d: rng.random() for d in range(4)} for i in range(12)}
    m1, m2 = model_of(a, items), model_of(b, items)
    assert m1.global_prefs == m2.global_prefs
    assert m1.slot_prefs == m2.slot_prefs


def test_slot_independent_history_collapses_to_global():
    # A user who watches the same programs in every slot has h_{u,w} == h_u.
    cells = {(f"p{i}", w, "c1"): 1 for i in range(3) for w in (2, 4, 6)}
    items = {f"p{i}": {i: 1.0} for i in range(3)}
    model = model_of(tensor_cells({"u": cells}), items)
    for w in (2, 4, 6):
        assert model.slot_prefs["u"][w] == model.global_prefs["u"]


def _random_fixture(seed):
    rng = random.Random(seed)
    cells = {(f"p{i}", rng.randint(1, 6), f"c{rng.randint(1, 2)}"): rng.randint(1, 3) for i in range(10)}
    items = {f"p{i}": {d: rng.random() for d in rng.sample(range(6), 3)} for i in range(12)}
    return {"u": cells, "v": dict(list(cells.items())[:4])}, items


def _global_means(cells, items):
    """Each user's mean embedding over their distinct items, summed in id order."""
    means = {}
    for user, user_cells in cells.items():
        distinct = sorted({i for (i, _, _) in user_cells})
        acc = {}
        for i in distinct:
            for d, v in items[i].items():
                acc[d] = acc.get(d, 0.0) + v
        means[user] = {d: v * (1.0 / len(distinct)) for d, v in acc.items()}
    return means


@pytest.mark.parametrize(
    "cells, items",
    [
        ({"u": {("p1", 3, "c1"): 2}}, {"p1": E1}),
        ({"u": {("p1", 3, "c1"): 1, ("p2", 7, "c2"): 1}}, {"p1": E1, "p2": E2}),
        ({"u": {("p1", 5, "c1"): 1, ("p2", 9, "c1"): 1}, "w": {("p2", 5, "c1"): 4}}, {"p1": E1, "p2": E2}),
        _random_fixture(3),
        _random_fixture(11),
    ],
)
def test_global_view_of_time_aware_model_is_the_global_model(cells, items):
    model = model_of(tensor_cells(cells), items)
    assert model.slot_prefs.keys() == cells.keys()
    time_aware = preference_model(model, candidates([meta(p) for p in items], GRID))
    view = global_view(time_aware)
    global_prefs, slot_prefs = preference_vectors(view.prefs, sorted(cells))
    assert global_prefs == _global_means(cells, items)
    assert slot_prefs == {u: {} for u in sorted(cells)}
    assert view.items is time_aware.items


def assert_model_matches_the_dict_oracles(cells, embeddings):
    """Behavior matrices and preference vectors built from the cells equal the
    dict builders' over the same tensor: values, and the order of users (by
    name), (slot, channel) keys (by slot, then channel code), slots and dims."""
    by_user = tensor_dicts(cells)
    users = sorted(by_user)
    behavior = behavior_dicts(behavior_matrix(cells))
    code = cells.channel_names.index
    assert [(u, bm.user, list(bm.probs.items())) for u, bm in behavior.items()] == [
        (u, u, sorted(behavior_matrix_dicts(by_user, u).probs.items(), key=lambda e: (e[0][0], code(e[0][1]))))
        for u in users
    ]
    got = model_of(cells, embeddings)
    want = preference_dicts(by_user, embeddings)
    assert [(u, list(v.items())) for u, v in got.global_prefs.items()] == [
        (u, list(want.global_prefs[u].items())) for u in users
    ]

    def slot_vectors(model):
        return [(u, [(s, list(v.items())) for s, v in model.slot_prefs[u].items()]) for u in users]

    assert list(got.slot_prefs) == users
    assert slot_vectors(got) == slot_vectors(want)


@pytest.mark.parametrize("seed", range(4))
def test_model_from_cells_equals_the_dict_oracles(seed):
    rng = random.Random(seed)
    programs = [f"p{i:02d}" for i in range(15)]
    embeddings = {p: {d: rng.random() for d in rng.sample(range(8), rng.randint(1, 4))} for p in programs}
    embeddings["p07"] = {}  # a text with no known token encodes to the zero vector
    by_user = {}
    for u in rng.sample(range(100), 8):  # dicts with users, programs and channels out of name order
        cells = {}
        for _ in range(rng.randint(1, 12)):
            cell = (rng.choice(programs), rng.randint(1, 6), rng.choice(("c2", "c1", "c3")))
            cells[cell] = cells.get(cell, 0) + rng.randint(1, 3)
        by_user[f"u{u}"] = cells
    by_user["one-slot"] = {**{(p, 4, "c1"): 1 for p in rng.sample(programs, 3)}, ("p07", 4, "c2"): 2}
    assert_model_matches_the_dict_oracles(tensor_cells(by_user), embeddings)


def test_model_from_a_prepared_dataset_equals_the_dict_oracles():
    cfg = synth.SynthConfig(n_users=30, n_channels=4, n_topics=5, weeks_train=2, weeks_test=1, rng_seed=8)
    world = synth.gen_world(cfg)
    spec = SplitSpec(t_split=cfg.t_split, dt_train=2 * SECONDS_PER_WEEK, dt_test=SECONDS_PER_WEEK)
    prepared, _ = prepare(synth.gen_logs(world), world.programs, cfg.grid, spec)
    texts = prepared.texts
    rows = row_dicts(encode(*fit(texts)))
    vocab = fit_dicts(texts)
    assert [list(row.items()) for row in rows] == [list(encode_dict(vocab, term_counts(t)).items()) for t in texts]
    assert_model_matches_the_dict_oracles(prepared.cells, dict(zip(prepared.cells.program_names, rows)))


def test_entry_sums_add_each_column_in_entry_order():
    # The preference rule: each row's products added one after another, in
    # embedding order, bit for bit. numpy sums pairwise over a lone column
    # and over a column-major array, so both layouts and row counts 1 and 2
    # are covered, at every width up to 300.
    rng = np.random.default_rng(2020)
    for width in range(1, 301):
        for n in (1, 2, int(rng.integers(3, 40))):
            products = rng.random((width, n)) * 10.0 ** rng.integers(-8, 8, size=(width, n))
            lens = rng.integers(0, width + 1, size=n)
            lens[0] = width
            products[np.arange(width)[:, None] >= lens] = 0.0  # zero padding past each row's length
            want = np.array([entry_sum(col) for col in products.T.tolist()])
            for layout in (products, np.asfortranarray(products)):
                assert entry_sums(layout).tobytes() == want.tobytes(), (width, n)
