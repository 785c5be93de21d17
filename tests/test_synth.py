import json
from collections import Counter

import pytest

from oracles import behavior_dicts, log_table
from tvrec.behavior import behavior_matrix
from tvrec.datamodel import SplitSpec, filter_flips, prepare
from tvrec.synth import SynthConfig, World, gen_logs, gen_world, manifest
from tvrec.timegrid import SECONDS_PER_WEEK, slot_of

SMALL = SynthConfig(n_users=40, n_channels=5, n_topics=6, weeks_train=3, weeks_test=1, rng_seed=11)


@pytest.fixture(scope="module")
def small_world() -> World:
    return gen_world(SMALL)


@pytest.fixture(scope="module")
def small_logs(small_world):
    return gen_logs(small_world)


def test_same_seed_reproduces_world_and_logs(small_world, small_logs):
    again = gen_world(SMALL)
    assert again.metas == small_world.metas
    assert again.accounts == small_world.accounts
    assert gen_logs(again) == small_logs


def test_different_seed_changes_logs(small_world, small_logs):
    other = gen_world(SynthConfig(**{**vars(SMALL), "rng_seed": 12}))
    assert gen_logs(other) != small_logs


def test_schedule_is_gap_free_and_non_overlapping(small_world):
    for channel, progs in small_world.schedule.items():
        assert progs[0].start <= SMALL.origin < progs[0].end
        assert progs[-1].end >= SMALL.horizon_end
        for a, b in zip(progs, progs[1:]):
            assert a.end == b.start


def test_mean_programs_per_slot_matches_target(small_world):
    cfg = small_world.config
    slot_len = cfg.grid.slot_len
    horizon_slots = (cfg.horizon_end - cfg.origin) // slot_len
    counts = []
    for progs in small_world.schedule.values():
        per_slot = Counter()
        for m in progs:
            first = (m.start - cfg.origin) // slot_len
            last = (m.end - 1 - cfg.origin) // slot_len
            for s in range(first, min(last, horizon_slots - 1) + 1):
                per_slot[s] += 1
        counts.extend(per_slot[s] for s in range(horizon_slots))
    mean = sum(counts) / len(counts)
    assert abs(mean - cfg.programs_per_slot_target) <= 0.1 * cfg.programs_per_slot_target


def test_program_texts_have_5_to_15_tokens(small_world):
    for m in small_world.metas:
        assert 5 <= len(m.text.split()) <= 15


def test_flip_events_are_below_default_threshold(small_logs):
    flips = [g for g in small_logs if g.dt < 900]
    assert flips, "generator should emit sub-threshold flip events"
    kept = filter_flips(log_table(small_logs))
    assert (kept.dt >= 900).all()


def test_persona_support_containment(small_world, small_logs):
    # logs of a single-persona account stay on its habitual channels
    for account in small_world.accounts:
        if len(account.personas) != 1:
            continue
        persona = account.personas[0]
        allowed = {c for (_, c) in persona.habit}
        seen = {g.channel for g in small_logs if g.user == account.user}
        assert seen <= allowed


def test_generated_data_passes_ingestion_unmodified(small_world, small_logs):
    cfg = small_world.config
    spec = SplitSpec(
        t_split=cfg.t_split,
        dt_train=cfg.weeks_train * SECONDS_PER_WEEK,
        dt_test=cfg.weeks_test * SECONDS_PER_WEEK,
    )
    prepared, summary = prepare(log_table(small_logs), small_world.metas, cfg.grid, spec)
    assert summary["users"] > 0
    for bm in behavior_dicts(behavior_matrix(prepared.cells)).values():
        assert abs(sum(bm.probs.values()) - 1.0) <= 1e-9
        assert all(1 <= slot <= cfg.n_slots for (slot, _) in bm.probs)


def test_test_week_behavior_correlates_with_planted_habit():
    # pooled over single-persona accounts: empirical watch frequency per habit
    # cell in the test weeks against the planted probability
    cfg = SynthConfig(
        n_users=100, n_channels=5, n_topics=6, weeks_train=1, weeks_test=3,
        personas_min=1, personas_max=1, rng_seed=21,
    )
    world = gen_world(cfg)
    logs = gen_logs(world)
    xs, ys = [], []
    watched = [g for g in logs if g.dt >= 900 and g.t >= cfg.t_split]
    by_user = {}
    for g in watched:
        by_user.setdefault(g.user, []).append(g)
    for account in world.accounts:
        persona = account.personas[0]
        counts = Counter(
            (slot_of(g.t, cfg.grid), g.channel) for g in by_user.get(account.user, [])
        )
        for cell, prob in persona.habit.items():
            xs.append(prob)
            ys.append(counts.get(cell, 0) / cfg.weeks_test)
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n
    assert cov > 0


def test_heavy_user_behavior_argmax_recovers_planted_mode():
    # attentive single persona with one prime-time cell, long horizon: the
    # empirical argmax lands among the strongest habit cells for most accounts
    cfg = SynthConfig(
        n_users=30, n_channels=4, n_topics=5, weeks_train=40, weeks_test=1,
        personas_min=1, personas_max=1, attention=1.0, rng_seed=5,
    )
    world = gen_world(cfg)
    logs = gen_logs(world)
    spec = SplitSpec(
        t_split=cfg.t_split,
        dt_train=cfg.weeks_train * SECONDS_PER_WEEK,
        dt_test=SECONDS_PER_WEEK,
    )
    prepared, _ = prepare(log_table(logs), world.metas, cfg.grid, spec)
    matrices = behavior_dicts(behavior_matrix(prepared.cells))
    hits = total = 0
    for account in world.accounts:
        if account.user not in matrices:
            continue
        persona = account.personas[0]
        bm = matrices[account.user]
        got = max(bm.probs, key=lambda cell: (bm.probs[cell], -cell[0]))
        top3 = sorted(persona.habit, key=persona.habit.__getitem__, reverse=True)[:3]
        total += 1
        hits += got in top3
    assert total >= 20
    assert hits / total >= 0.75


def test_mean_truth_size_matches_deterministic_walk_of_planted_world(small_world, small_logs):
    # expected |I_test^u| from the planted parameters: for each persona slot,
    # the watched program and its duration are deterministic given a tune, so
    # E|truth| = sum over programs of 1 - prod(1 - tune_prob * watch_prob).
    cfg = small_world.config
    week_start = cfg.t_split
    slot_len = cfg.grid.slot_len
    topic_of = small_world.topics.program_topic
    expected_sizes = []
    for account in small_world.accounts:
        per_program: dict[str, list[float]] = {}
        for persona in account.personas:
            for (slot, channel), prob in persona.habit.items():
                t0 = week_start + (slot - 1) * slot_len
                cands = [
                    m for m in small_world.schedule[channel]
                    if m.start < t0 + slot_len and m.end > t0
                ]
                if not cands:
                    continue
                best = max(cands, key=lambda m: (persona.topics.get(topic_of[m.program], 0.0), -m.start))
                t_w = max(t0, best.start)
                dt = min(best.end, t0 + persona.residence) - t_w
                if dt < 900 or not (cfg.t_split <= best.start < cfg.horizon_end):
                    continue
                matched = persona.topics.get(topic_of[best.program], 0.0) > 0
                q = prob * (1.0 if matched else persona.attention)
                per_program.setdefault(best.program, []).append(q)
        expected = sum(1 - _prod(1 - q for q in qs) for qs in per_program.values())
        expected_sizes.append(expected)
    expected_mean = sum(expected_sizes) / len(expected_sizes)

    spec = SplitSpec(
        t_split=cfg.t_split,
        dt_train=cfg.weeks_train * SECONDS_PER_WEEK,
        dt_test=SECONDS_PER_WEEK,
    )
    prepared, _ = prepare(log_table(small_logs), small_world.metas, cfg.grid, spec)
    sizes = [len(v) for v in prepared.truths().values()]
    # every generated account appears; accounts can drop out of U only by
    # having no test-week watch, which the expectation already prices in
    empirical_mean = sum(sizes) / len(small_world.accounts)
    assert empirical_mean == pytest.approx(expected_mean, rel=0.15)


def _prod(values):
    out = 1.0
    for v in values:
        out *= v
    return out


def test_manifest_records_seed_and_planted_parameters(small_world, small_logs):
    m = manifest(small_world, small_logs)
    assert m["seed"] == SMALL.rng_seed
    assert m["t_split"] == SMALL.t_split
    assert m["counts"]["accounts"] == SMALL.n_users
    assert len(m["planted"]) == SMALL.n_users
    json.dumps(m)  # must be serializable as-is
    first = m["planted"][0]["personas"][0]
    assert set(first) == {"habit", "topics", "attention", "residence"}


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_users=0)
    with pytest.raises(ValueError):
        SynthConfig(personas_min=3, personas_max=2)
    with pytest.raises(ValueError):
        SynthConfig(programs_per_slot_target=1.0)
    with pytest.raises(ValueError):
        SynthConfig(n_slots=672, origin=SynthConfig().origin + 3600)
    with pytest.raises(ValueError):
        SynthConfig(n_slots=96)  # divides the week? no: 604800/96=6300 yes; but 96 % 7 != 0
