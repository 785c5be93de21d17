"""Seeded generator of synthetic channels, schedules, program texts, and
persona-based viewing logs.

Accounts hold one or more personas (household members sharing a set-top box).
Each persona has a weekly habit (sparse slot/channel activity probabilities
confined to its own daily time band), topic preferences aligned with its
favorite channel's programming, and an attention probability for watching a
program that matches none of its topics. Program texts are drawn from
disjoint-support topic vocabularies plus a shared common-word pool, so tf-idf
separates topics without making the preference baseline trivially perfect.

Generation is deterministic under the configured seed: every channel and
account draws from its own counter-based stream (Philox keyed by a spawn
path), so output is independent of iteration or thread order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .datamodel import ProgramMeta, ViewingLog
from .timegrid import SECONDS_PER_WEEK, TimeGrid

DURATION_STEP = 300  # schedule lattice, seconds
WORDS_PER_TOPIC = 24
N_COMMON_WORDS = 50
COMMON_WORD_MASS = 0.2
REPLAY_PROB = 0.2  # replayed content gets a fresh id and a perturbed title
PRIMARY_TOPICS_PER_CHANNEL = 3
PRIMARY_TOPIC_MASS = 0.85
HOME_CHANNEL_PROB = 0.85  # personas of one account mostly share a home channel
FLIP_DT = 60  # seconds; well under any sensible flip threshold
HABIT_PROB_RANGE = (0.35, 0.7)
PRIME_HABIT_PROB = 0.95  # one appointment-viewing cell per persona
DEFAULT_ATTENTION = 0.1

# Monday 2019-04-01 00:00:00 UTC
DEFAULT_ORIGIN = 1_554_076_800

_WORLD, _CHANNEL, _ACCOUNT, _LOGS = 0, 1, 2, 3


def _rng(seed: int, kind: int, idx: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(kind, idx))))


@dataclass(frozen=True)
class Persona:
    """One synthetic household member of an account."""

    habit: Mapping[tuple[int, str], float]
    topics: Mapping[int, float]
    attention: float
    residence: int  # max seconds spent in front of the TV per tune-in


@dataclass(frozen=True)
class Account:
    user: str
    personas: tuple[Persona, ...]


@dataclass(frozen=True)
class TopicModel:
    topic_words: tuple[tuple[str, ...], ...]
    common_words: tuple[str, ...]
    program_topic: Mapping[str, int]


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 200
    n_channels: int = 8
    n_topics: int = 10
    weeks_train: int = 4
    weeks_test: int = 1
    personas_min: int = 1
    personas_max: int = 3
    programs_per_slot_target: float = 1.5
    attention: float = DEFAULT_ATTENTION
    rng_seed: int = 0
    n_slots: int = 672
    utc_offset: int = 0
    origin: int = DEFAULT_ORIGIN

    def __post_init__(self) -> None:
        for name in ("n_users", "n_channels", "n_topics", "weeks_train", "weeks_test", "personas_min"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.personas_max < self.personas_min:
            raise ValueError("personas_max must be >= personas_min")
        if not self.programs_per_slot_target > 1.0:  # NaN too
            raise ValueError("programs_per_slot_target must exceed 1 (gap-free schedules)")
        if not 0.0 <= self.attention <= 1.0:
            raise ValueError("attention must lie in [0, 1]")
        if self.n_slots < 1 or SECONDS_PER_WEEK % self.n_slots != 0 or self.n_slots % 7 != 0:
            raise ValueError("n_slots must divide the week and be a multiple of 7")
        local = self.origin + self.utc_offset
        if (local + 3 * 86_400) % SECONDS_PER_WEEK != 0:
            raise ValueError("origin must fall on Monday 00:00 local time")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(n=self.n_slots, utc_offset=self.utc_offset)

    @property
    def t_split(self) -> int:
        return self.origin + self.weeks_train * SECONDS_PER_WEEK

    @property
    def horizon_end(self) -> int:
        return self.t_split + self.weeks_test * SECONDS_PER_WEEK


@dataclass(frozen=True)
class World:
    """A generated universe: schedule, topics, and planted personas."""

    config: SynthConfig
    metas: tuple[ProgramMeta, ...]
    topics: TopicModel
    accounts: tuple[Account, ...]
    schedule: Mapping[str, tuple[ProgramMeta, ...]]


def _duration_choices(slot_len: int, target: float) -> tuple[int, ...]:
    # Gap-free renewal schedule: expected programs touching a slot of length L
    # is 1 + L/E[duration], so E[duration] = L/(target-1).
    mean_d = slot_len / (target - 1.0)
    mean_d = max(2 * DURATION_STEP, round(mean_d / DURATION_STEP) * DURATION_STEP)
    half = min(slot_len, mean_d - DURATION_STEP)
    half = (half // DURATION_STEP) * DURATION_STEP
    return tuple(range(int(mean_d - half), int(mean_d + half) + 1, DURATION_STEP))


def _draw_tokens(rng: np.random.Generator, topic_vocab, common_vocab, length: int) -> list[str]:
    common = rng.random(length) < COMMON_WORD_MASS
    ti = rng.integers(0, len(topic_vocab), size=length)
    ci = rng.integers(0, len(common_vocab), size=length)
    return [common_vocab[c] if m else topic_vocab[t] for m, t, c in zip(common, ti, ci)]


def gen_world(cfg: SynthConfig) -> World:
    """Generate channels, gap-free schedules with program texts, and accounts
    with planted personas."""
    wrng = _rng(cfg.rng_seed, _WORLD)
    topic_words = tuple(
        tuple(f"t{k:02d}w{j:02d}" for j in range(WORDS_PER_TOPIC)) for k in range(cfg.n_topics)
    )
    common_words = tuple(f"cw{j:02d}" for j in range(N_COMMON_WORDS))
    channels = [f"c{ci:02d}" for ci in range(cfg.n_channels)]
    n_primary = min(PRIMARY_TOPICS_PER_CHANNEL, cfg.n_topics)
    primary = {
        ch: tuple(int(t) for t in wrng.choice(cfg.n_topics, size=n_primary, replace=False))
        for ch in channels
    }

    durations = _duration_choices(cfg.grid.slot_len, cfg.programs_per_slot_target)
    metas: list[ProgramMeta] = []
    program_topic: dict[str, int] = {}
    schedule: dict[str, tuple[ProgramMeta, ...]] = {}
    for ci, ch in enumerate(channels):
        crng = _rng(cfg.rng_seed, _CHANNEL, ci)
        progs: list[ProgramMeta] = []
        memory: list[tuple[int, tuple[str, ...]]] = []
        # Half-step phase shift keeps program boundaries off the slot
        # boundaries, so the expected per-slot program count stays at
        # 1 + slot_len/mean_duration (no renewal ever lands on a slot edge).
        t = cfg.origin - DURATION_STEP // 2
        idx = 0
        while t < cfg.horizon_end:
            dur = int(crng.choice(durations))
            pid = f"{ch}-p{idx:05d}"
            if memory and crng.random() < REPLAY_PROB:
                topic, base = memory[int(crng.integers(len(memory)))]
                tokens = list(base)
                swap = int(crng.integers(len(tokens)))
                tokens[swap] = topic_words[topic][int(crng.integers(WORDS_PER_TOPIC))]
            else:
                if crng.random() < PRIMARY_TOPIC_MASS:
                    topic = primary[ch][int(crng.integers(n_primary))]
                else:
                    topic = int(crng.integers(cfg.n_topics))
                length = int(crng.integers(5, 16))
                tokens = _draw_tokens(crng, topic_words[topic], common_words, length)
                memory.append((topic, tuple(tokens)))
            meta = ProgramMeta(program=pid, channel=ch, start=t, end=t + dur, text=" ".join(tokens))
            progs.append(meta)
            program_topic[pid] = topic
            t += dur
            idx += 1
        schedule[ch] = tuple(progs)
        metas.extend(progs)

    slots_per_day = cfg.n_slots // 7
    slot_len = cfg.grid.slot_len
    accounts: list[Account] = []
    for ui in range(cfg.n_users):
        arng = _rng(cfg.rng_seed, _ACCOUNT, ui)
        n_personas = int(arng.integers(cfg.personas_min, cfg.personas_max + 1))
        chunk = max(slots_per_day // n_personas, 1)
        home_ch = channels[int(arng.integers(cfg.n_channels))]
        personas: list[Persona] = []
        for r in range(n_personas):
            # Each persona lives in its own daily band so household members
            # occupy different regions of the week; they mostly share the
            # account's home channel but prefer different topic pairs from
            # its lineup, which is what makes per-slot preferences matter.
            width = min(int(arng.integers(3, 7)), chunk)
            lo = min(r * chunk, slots_per_day - width)
            offset = int(arng.integers(lo, max(lo, lo + chunk - width) + 1))
            offset = min(offset, slots_per_day - width)
            n_days = int(arng.integers(4, 8))
            days = sorted(int(d) for d in arng.choice(7, size=n_days, replace=False))

            if arng.random() < HOME_CHANNEL_PROB:
                main_ch = home_ch
            else:
                main_ch = channels[int(arng.integers(cfg.n_channels))]
            # One clear interest per household member, rotated through the
            # channel lineup so members sharing a home channel want different
            # topics; that disagreement is what per-slot preferences resolve.
            lineup = primary[main_ch]
            topics = {lineup[r % len(lineup)]: 1.0}
            second = None
            if arng.random() < 0.4:
                sharing = [
                    c for c in channels if c != main_ch and set(primary[c]) & topics.keys()
                ]
                if sharing:
                    second = sharing[int(arng.integers(len(sharing)))]

            habit: dict[tuple[int, str], float] = {}
            for d in days:
                for j in range(width):
                    slot = d * slots_per_day + offset + j + 1
                    chan = main_ch if second is None or arng.random() < 0.75 else second
                    habit[(slot, chan)] = float(arng.uniform(*HABIT_PROB_RANGE))
            prime = list(habit)[int(arng.integers(len(habit)))]
            habit[prime] = PRIME_HABIT_PROB
            personas.append(
                Persona(
                    habit=habit,
                    topics=topics,
                    attention=cfg.attention,
                    residence=slot_len * int(arng.choice((2, 3, 4))),
                )
            )
        accounts.append(Account(user=f"u{ui:05d}", personas=tuple(personas)))

    return World(
        config=cfg,
        metas=tuple(metas),
        topics=TopicModel(topic_words=topic_words, common_words=common_words, program_topic=program_topic),
        accounts=tuple(accounts),
        schedule=schedule,
    )


def _airing(starts: list[int], progs: tuple[ProgramMeta, ...], lo: int, hi: int) -> list[ProgramMeta]:
    i = max(bisect_right(starts, lo) - 1, 0)
    out = []
    while i < len(progs) and progs[i].start < hi:
        if progs[i].end > lo:
            out.append(progs[i])
        i += 1
    return out


def gen_logs(world: World) -> list[ViewingLog]:
    """Simulate channel-switch events for every account over the full horizon.

    Per persona and weekly slot: with the planted habit probability, the
    persona tunes to its habitual channel at the slot start and watches the
    airing program whose topic best matches its preferences (earliest on
    ties). Candidates it passed over become sub-threshold flip events. A
    program matching none of its topics is watched with the attention
    probability, otherwise everything airing is flipped through.
    """
    cfg = world.config
    slot_len = cfg.grid.slot_len
    weeks = cfg.weeks_train + cfg.weeks_test
    channel_starts = {ch: [p.start for p in progs] for ch, progs in world.schedule.items()}
    topic_of = world.topics.program_topic

    logs: list[ViewingLog] = []
    for ui, account in enumerate(world.accounts):
        rng = _rng(cfg.rng_seed, _LOGS, ui)
        plan = [
            (persona, sorted(persona.habit.items()))
            for persona in account.personas
        ]
        per_week = sum(len(items) for _, items in plan)
        draws = rng.random(weeks * per_week)
        ptr = 0
        for week in range(weeks):
            week_start = cfg.origin + week * SECONDS_PER_WEEK
            for persona, items in plan:
                for (slot, channel), prob in items:
                    tune = draws[ptr] < prob
                    ptr += 1
                    if not tune:
                        continue
                    t0 = week_start + (slot - 1) * slot_len
                    progs = world.schedule[channel]
                    cands = _airing(channel_starts[channel], progs, t0, t0 + slot_len)
                    if not cands:
                        continue
                    best = cands[0]
                    best_aff = persona.topics.get(topic_of[best.program], 0.0)
                    for p in cands[1:]:
                        aff = persona.topics.get(topic_of[p.program], 0.0)
                        if aff > best_aff:
                            best, best_aff = p, aff
                    if best_aff <= 0.0 and rng.random() >= persona.attention:
                        for p in cands:
                            logs.append(ViewingLog(account.user, p.program, channel, max(t0, p.start), FLIP_DT))
                        continue
                    for p in cands:
                        if p is not best:
                            logs.append(ViewingLog(account.user, p.program, channel, max(t0, p.start), FLIP_DT))
                    t_w = max(t0, best.start)
                    dt = min(best.end, t0 + persona.residence) - t_w
                    logs.append(ViewingLog(account.user, best.program, channel, t_w, dt))
    logs.sort(key=lambda log: (log.t, log.user, log.channel, log.program, log.dt))
    return logs


def manifest(world: World, logs: list[ViewingLog]) -> dict:
    """Seed, configuration, and planted parameters, for provenance and for
    oracle checks against the generated data."""
    cfg = world.config
    planted = [
        {
            "user": account.user,
            "personas": [
                {
                    "habit": [[s, c, p] for (s, c), p in sorted(persona.habit.items())],
                    "topics": {str(t): w for t, w in sorted(persona.topics.items())},
                    "attention": persona.attention,
                    "residence": persona.residence,
                }
                for persona in account.personas
            ],
        }
        for account in world.accounts
    ]
    return {
        "seed": cfg.rng_seed,
        "config": asdict(cfg),
        "t_split": cfg.t_split,
        "train_window": [cfg.origin, cfg.t_split],
        "test_window": [cfg.t_split, cfg.horizon_end],
        "counts": {
            "programs": len(world.metas),
            "logs": len(logs),
            "accounts": len(world.accounts),
            "channels": cfg.n_channels,
        },
        "planted": planted,
    }
