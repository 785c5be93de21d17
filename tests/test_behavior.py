import random

import pytest

from oracles import (
    MONDAY,
    BehaviorMatrix,
    PreferenceDicts,
    ProgramMeta,
    ViewingLog,
    behavior_dicts,
    behavior_row,
    candidates,
    dense_behavior_score,
    log_table,
    masks,
    preference_model,
    program_table,
    random_instance,
    tensor_cells,
)
from tvrec.behavior import behavior_matrix
from tvrec.datamodel import build_tensor
from tvrec.errors import DataError
from tvrec.ranker import rank_behavior, top_k, two_stage
from tvrec.timegrid import TimeGrid

GRID = TimeGrid(n=672)


def matrix_of(cells, user="u"):
    """``user``'s row of ``behavior_matrix(cells)`` as a dict."""
    return behavior_dicts(behavior_matrix(cells))[user]


def test_behavior_matrix_normalizes_marginal_counts():
    cells = tensor_cells({"u": {("pa", 5, "c2"): 2, ("pb", 5, "c2"): 1, ("pc", 9, "c1"): 1}})
    bm = matrix_of(cells)
    assert bm.probs == {(5, "c2"): 0.75, (9, "c1"): 0.25}


def test_behavior_matrix_single_event():
    bm = matrix_of(tensor_cells({"u": {("p", 1, "c1"): 1}}))
    assert bm.probs == {(1, "c1"): 1.0}


def test_behavior_matrix_unknown_user_is_error():
    # A user the tensor lists without any cell has no distribution.
    with pytest.raises(DataError, match="ghost"):
        behavior_matrix(tensor_cells({"u": {("p", 1, "c1"): 1}, "ghost": {}}))


def test_behavior_matrix_matches_dense_formula_on_toy_tensor():
    # 4 slots x 2 channels, dense double-loop evaluation of the marginal ratio.
    rng = random.Random(1)
    cells = {}
    for item in ("p1", "p2", "p3"):
        for slot in range(1, 5):
            for channel in ("a", "b"):
                if rng.random() < 0.6:
                    cells[(item, slot, channel)] = rng.randint(1, 4)
    bm = matrix_of(tensor_cells({"u": cells}))
    total = sum(cells.values())
    for slot in range(1, 5):
        for channel in ("a", "b"):
            expected = sum(
                count
                for (item, s, c), count in cells.items()
                if s == slot and c == channel
            ) / total
            assert bm.probs.get((slot, channel), 0.0) == pytest.approx(expected)
    assert sum(bm.probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_behavior_matrix_invariant_to_log_order():
    logs = [
        ViewingLog("u", f"p{i % 3}", f"c{i % 2}", MONDAY + i * 1800, 1000) for i in range(40)
    ]
    metas = {f"p{i}": ProgramMeta(f"p{i}", f"c{i % 2}", MONDAY, MONDAY + 86_400, "") for i in range(3)}
    shuffled = logs[:]
    random.Random(0).shuffle(shuffled)
    restrict = {"items": frozenset(metas), "users": frozenset({"u"})}
    programs = program_table(metas.values())
    bm1, bm2 = (
        matrix_of(build_tensor(t, programs, GRID, **masks(t, programs, **restrict)))
        for t in map(log_table, (logs, shuffled))
    )
    assert bm1.probs == bm2.probs


def flat_model(metas, items=None):
    """A global preference model; every program scores 0 unless ``items`` says otherwise."""
    items = items or {m.program: {} for m in metas}
    return PreferenceDicts(global_prefs={"u": {0: 1.0}}, slot_prefs={}, item_embeddings=items)


def program(pid="px", channel="c2", start_slot=5, n_slots=2):
    start = MONDAY + (start_slot - 1) * 900
    return ProgramMeta(pid, channel, start, start + n_slots * 900 - 1, "")


def behavior_scores(bm, metas, grid=GRID):
    """Behavior score of each program, computed over the candidate index."""
    cand = candidates(metas, grid, {c for _, c in bm.probs})
    scores = rank_behavior(behavior_row(bm, cand), cand).scores
    return [float(scores[cand.ids.index(m.program)]) for m in metas]


def test_behavior_score_takes_span_maximum():
    bm = BehaviorMatrix("u", {(5, "c2"): 0.75, (6, "c2"): 0.10, (5, "c1"): 0.9})
    assert behavior_scores(bm, [program()]) == [0.75]


def test_behavior_score_unwatched_channel_is_zero_with_total_argmax():
    # The zero-score program still has a group key: it forms its own
    # two-stage run and is emitted after the watched one.
    bm = BehaviorMatrix("u", {(5, "c1"): 1.0})
    metas = [program("pa", channel="c1", n_slots=1), program("pz", channel="c9")]
    assert behavior_scores(bm, metas) == [1.0, 0.0]
    cand = candidates(metas, GRID, {"c1"})
    ranked = top_k(cand, two_stage(behavior_row(bm, cand), preference_model(flat_model(metas), cand), cand, 5), 5)
    assert ranked == [("pa", 1.0), ("pz", 0.0)]


def test_behavior_score_tie_takes_earliest_slot():
    # A spans slots 1-2 and B slot 2 alone; both score 0.5. The earliest-slot
    # tie rule gives A argmax slot 1 and B slot 2: two two-stage runs, two
    # winners. Taking slot 2 for A would put both in one run and emit only
    # the preferred B.
    bm = BehaviorMatrix("u", {(1, "c1"): 0.5, (2, "c1"): 0.5})
    metas = [program("A", channel="c1", start_slot=1), program("B", channel="c1", start_slot=2, n_slots=1)]
    model = flat_model(metas, {"A": {0: 0.1}, "B": {0: 0.9}})
    cand = candidates(metas, GRID, {"c1"})
    ranking = two_stage(behavior_row(bm, cand), preference_model(model, cand), cand, 5)
    assert top_k(cand, ranking, 5) == [("A", 0.5), ("B", 0.5)]


def test_behavior_score_equals_dense_elementwise_product_oracle():
    rng = random.Random(42)
    for _ in range(300):
        grid, metas, bm, _ = random_instance(rng)
        channels = sorted({m.channel for m in metas} | {c for (_, c) in bm.probs})
        efficient = behavior_scores(bm, metas, grid)
        for meta, score in zip(metas[:10], efficient):
            dense = dense_behavior_score(bm, meta, channels, grid)
            assert score == pytest.approx(dense, abs=1e-12)
            assert 0.0 <= score <= 1.0
            assert score <= max(bm.probs.values())
