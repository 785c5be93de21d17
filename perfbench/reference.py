"""Independent reference for the benchmark's correctness checks.

Everything here is computed straight from the generated ``logs.jsonl`` and
``programs.jsonl`` with plain Python: the flip filter, the time split, the
user set, ground truth, behavior scores, tf-idf preference scores, the
two-stage run structure and reciprocal rank fusion. Nothing is imported from
the ``tvrec`` package, so a fault in the program cannot hide in its own check.

Each ``check_*`` function returns a list of problems; an empty list means the
output agrees with the reference.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

SECONDS_PER_WEEK = 604_800
EPOCH_TO_MONDAY = 3 * 86_400  # the Unix epoch is a Thursday
PREF_TOL = 1e-9  # near-tied preference scores may differ in the last bits
METRIC_TOL = 1e-12

# Lowercased alphanumeric runs; hiragana, katakana and CJK ideographs count as
# one token each.
_CJK = "぀-ヿ㐀-䶿一-鿿"
_TOKEN_RE = re.compile(f"[{_CJK}]|[^\\W_{_CJK}]+")


@dataclass(frozen=True)
class Setup:
    """The engine settings the reference must mirror."""

    t_split: int
    train_secs: int
    test_secs: int
    n_slots: int = 672
    utc_offset: int = 0
    dt_min: int = 900
    k: int = 30
    eta: float = 60.0
    cutoffs: tuple[int, ...] = (10, 20, 30)


class Reference:
    """Reference state derived from one pair of input files."""

    def __init__(self, data_dir: Path, setup: Setup) -> None:
        self.setup = setup
        self.slot_len = SECONDS_PER_WEEK // setup.n_slots
        lo, mid = setup.t_split - setup.train_secs, setup.t_split
        hi = setup.t_split + setup.test_secs

        self.programs: dict[str, tuple[str, int, int, str]] = {}
        with open(data_dir / "programs.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    self.programs[rec["program"]] = (rec["channel"], rec["start"], rec["end"], rec["text"])
        train_items = {p for p, (_, s, _, _) in self.programs.items() if lo <= s < mid}
        test_items = {p for p, (_, s, _, _) in self.programs.items() if mid <= s < hi}
        self.test_items = frozenset(test_items)

        train_users: set[str] = set()
        test_users: set[str] = set()
        train_logs: list[tuple[str, str, str, int]] = []
        test_logs: list[tuple[str, str]] = []
        with open(data_dir / "logs.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec["dt"] < setup.dt_min:
                    continue  # a channel flip
                t = rec["t"]
                if lo <= t < mid:
                    train_users.add(rec["user"])
                    train_logs.append((rec["user"], rec["program"], rec["channel"], t))
                elif mid <= t < hi:
                    test_users.add(rec["user"])
                    test_logs.append((rec["user"], rec["program"]))
        both = train_users & test_users

        # Counted history: (program, slot, channel) per kept train log of a
        # user in both halves, for programs broadcast in the train window.
        self.history: dict[str, list[tuple[str, int, str]]] = defaultdict(list)
        for user, program, channel, t in train_logs:
            if user in both and program in train_items:
                self.history[user].append((program, self.slot_of(t), channel))
        self.users = frozenset(self.history)

        truth: dict[str, set[str]] = defaultdict(set)
        for user, program in test_logs:
            if user in self.users and program in test_items:
                truth[user].add(program)
        self.truth = {u: frozenset(items) for u, items in truth.items()}

        # Candidates in (start, id) order, with each one's slot span.
        self.candidates = sorted(test_items, key=lambda p: (self.programs[p][1], p))
        self.spans = {p: self._span(p) for p in self.candidates}
        self.start_slot = {p: self.slot_of(self.programs[p][1]) for p in self.candidates}

        corpus = sorted(train_items | test_items)
        df: Counter[str] = Counter()
        for p in corpus:
            df.update(set(_TOKEN_RE.findall(self.programs[p][3].lower())))
        n_docs = len(corpus)
        self.idf = {t: math.log((1 + n_docs) / (1 + c)) + 1.0 for t, c in df.items()}
        self._emb: dict[str, dict[str, float]] = {}

    # -- time grid -------------------------------------------------------

    def _abs_slot(self, t: int) -> int:
        return (t + self.setup.utc_offset + EPOCH_TO_MONDAY) // self.slot_len

    def slot_of(self, t: int) -> int:
        return self._abs_slot(t) % self.setup.n_slots + 1

    def _span(self, program: str) -> list[int]:
        _, start, end, _ = self.programs[program]
        n = self.setup.n_slots
        return [a % n + 1 for a in range(self._abs_slot(start), self._abs_slot(end) + 1)]

    # -- behavior ----------------------------------------------------------

    def behavior(self, user: str) -> dict[str, tuple[float, tuple[int, str]]]:
        """Per candidate: (behavior score, (argmax slot, channel)). The score
        is the user's largest (slot, channel) share over the program's span;
        ties go to the earliest span slot."""
        hist = self.history[user]
        counts = Counter((slot, channel) for _, slot, channel in hist)
        total = len(hist)
        probs = {cell: c / total for cell, c in counts.items()}
        out = {}
        for p in self.candidates:
            channel = self.programs[p][0]
            span = self.spans[p]
            best_slot, best = span[0], probs.get((span[0], channel), 0.0)
            for slot in span[1:]:
                v = probs.get((slot, channel), 0.0)
                if v > best:
                    best, best_slot = v, slot
            out[p] = (best, (best_slot, channel))
        return out

    def stage_one(self, scores: dict[str, tuple[float, tuple[int, str]]]) -> list[str]:
        return sorted(self.candidates, key=lambda p: (-scores[p][0], self.programs[p][1], p))

    # -- preference --------------------------------------------------------

    def embedding(self, program: str) -> dict[str, float]:
        emb = self._emb.get(program)
        if emb is None:
            tf = Counter(_TOKEN_RE.findall(self.programs[program][3].lower()))
            raw = {t: c * self.idf[t] for t, c in tf.items() if t in self.idf}
            norm = math.sqrt(sum(w * w for w in raw.values()))
            emb = {t: w / norm for t, w in raw.items()} if norm > 0 else {}
            self._emb[program] = emb
        return emb

    def _mean(self, programs: set[str]) -> dict[str, float]:
        acc: dict[str, float] = defaultdict(float)
        for p in sorted(programs):
            for t, w in self.embedding(p).items():
                acc[t] += w
        return {t: w / len(programs) for t, w in acc.items()}

    def preference(self, user: str, programs) -> dict[str, float]:
        """Time-aware preference score per program: the dot product of the
        program's tf-idf vector with the user's mean vector for the program's
        start slot, or with the user's global mean vector when the user has
        no history in that slot."""
        hist = self.history[user]
        global_vec = self._mean({p for p, _, _ in hist})
        by_slot: dict[int, set[str]] = defaultdict(set)
        for p, slot, _ in hist:
            by_slot[slot].add(p)
        slot_vecs = {slot: self._mean(ps) for slot, ps in by_slot.items()}
        out = {}
        for p in programs:
            vec = slot_vecs.get(self.start_slot[p], global_vec)
            emb = self.embedding(p)
            out[p] = math.fsum(w * vec.get(t, 0.0) for t, w in emb.items())
        return out


def read_jsonl(path: Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if "_meta" not in rec:
                    rows.append(rec)
    return rows


# ---------------------------------------------------------------------------
# checks


def check_truth(ref: Reference, rows: list[dict]) -> list[str]:
    got: dict[str, frozenset[str]] = {}
    for row in rows:
        if row["user"] in got:
            return [f"truth lists user {row['user']!r} twice"]
        got[row["user"]] = frozenset(row["items"])
    problems = []
    if got.keys() != ref.truth.keys():
        extra = sorted(got.keys() - ref.truth.keys())[:3]
        missing = sorted(ref.truth.keys() - got.keys())[:3]
        problems.append(f"truth users differ: extra {extra}, missing {missing}")
    for user in sorted(got.keys() & ref.truth.keys()):
        if got[user] != ref.truth[user]:
            problems.append(f"truth of {user!r} differs from the reference")
            break
    return problems


def _ndcg(items: list[str], truth: frozenset[str], n: int) -> float:
    dcg = sum(1.0 / math.log2(p + 1) for p, pid in enumerate(items[:n], 1) if pid in truth)
    idcg = sum(1.0 / math.log2(p + 1) for p in range(1, min(n, len(truth)) + 1))
    return dcg / idcg


def check_metrics(ref: Reference, recs: list[dict], report: dict) -> list[str]:
    """Recompute nDCG/P/R from the recs file against the reference truth."""
    sums = {n: [0.0, 0.0, 0.0] for n in ref.setup.cutoffs}
    counted = skipped = 0
    for row in sorted(recs, key=lambda r: r["user"]):
        truth = ref.truth.get(row["user"])
        if not truth:
            skipped += 1
            continue
        counted += 1
        items = row["items"]
        for n, acc in sums.items():
            hits = len(set(items[:n]) & truth)
            acc[0] += _ndcg(items, truth, n)
            acc[1] += hits / n
            acc[2] += hits / len(truth)
    problems = []
    if report.get("n_users") != counted or report.get("n_skipped") != skipped:
        problems.append(
            f"metrics count {report.get('n_users')} users / {report.get('n_skipped')} skipped, "
            f"reference {counted} / {skipped}"
        )
    for n, acc in sums.items():
        for name, total in zip(("ndcg", "precision", "recall"), acc):
            want = total / counted if counted else 0.0
            got = report.get(name, {}).get(str(n))
            if got is None or abs(got - want) > METRIC_TOL:
                problems.append(f"{name}@{n} is {got}, reference {want}")
    return problems


def check_rows(ref: Reference, recs: list[dict]) -> list[str]:
    """One row per user; k distinct test-window ids; non-increasing scores."""
    problems = []
    seen = set()
    k = ref.setup.k
    for row in recs:
        user, items, scores = row["user"], row["items"], row["scores"]
        if user in seen:
            problems.append(f"user {user!r} has two rows")
        seen.add(user)
        if len(items) != k or len(scores) != k:
            problems.append(f"user {user!r} has {len(items)} items and {len(scores)} scores, expected {k}")
        if len(set(items)) != len(items):
            problems.append(f"user {user!r} lists an item twice")
        if not all(p in ref.test_items for p in items):
            problems.append(f"user {user!r} lists a program outside the test window")
        if any(b > a for a, b in zip(scores, scores[1:])):
            problems.append(f"user {user!r} has increasing scores")
        if len(problems) >= 5:
            break
    if not problems and seen != ref.users:
        problems.append(f"recs cover {len(seen)} users, reference has {len(ref.users)}")
    return problems


def check_two_stage(ref: Reference, user: str, row: dict) -> list[str]:
    """Each emitted item must come from its run of the reference stage-one
    order, carry its exact behavior score, and have a preference score within
    PREF_TOL of the best in that run."""
    behavior = ref.behavior(user)
    runs: list[list[str]] = []
    prev = None
    for p in ref.stage_one(behavior):
        key = behavior[p][1]
        if not runs or key != prev:
            if len(runs) == ref.setup.k:
                break
            runs.append([])
        runs[-1].append(p)
        prev = key
    items, scores = row["items"], row["scores"]
    if len(items) != len(runs):
        return [f"{user!r}: {len(items)} items, reference has {len(runs)} runs"]
    pref = ref.preference(user, [p for run in runs for p in run])
    for i, (item, score, run) in enumerate(zip(items, scores, runs)):
        if item not in run:
            return [f"{user!r}: item {i} {item!r} is not in run {i} of the stage-one order"]
        if score != behavior[item][0]:
            return [f"{user!r}: item {item!r} scored {score!r}, reference behavior score {behavior[item][0]!r}"]
        best = max(pref[p] for p in run)
        if pref[item] < best - PREF_TOL:
            return [f"{user!r}: item {item!r} preference {pref[item]} is below its run's best {best}"]
    return []


def check_rrf(ref: Reference, user: str, row: dict) -> list[str]:
    """Reciprocal rank fusion of the behavior order and the preference order.

    Behavior ranks are exact. Preference scores within PREF_TOL of each other
    form a cluster whose members may take the cluster's ranks in any order, so
    each emitted item's preference rank is read back from its fused score and
    must fall in its cluster, and every item left out must admit a rank in its
    cluster that keeps it behind the k-th item.
    """
    eta = ref.setup.eta
    k = ref.setup.k
    behavior = ref.behavior(user)
    rank_b = {p: r for r, p in enumerate(ref.stage_one(behavior), 1)}
    pref = ref.preference(user, ref.candidates)
    order = sorted(ref.candidates, key=lambda p: (-pref[p], ref.programs[p][1], p))
    block: dict[str, int] = {}  # program -> cluster number
    bounds: list[tuple[int, int]] = []  # cluster -> (first rank, last rank)
    for r, p in enumerate(order, 1):
        if bounds and pref[order[r - 2]] - pref[p] <= PREF_TOL:
            bounds[-1] = (bounds[-1][0], r)
        else:
            bounds.append((r, r))
        block[p] = len(bounds) - 1

    items, scores = row["items"], row["scores"]
    if len(items) != min(k, len(ref.candidates)):
        return [f"{user!r}: {len(items)} items, expected {k}"]
    taken: dict[int, set[int]] = defaultdict(set)
    for item, score in zip(items, scores):
        if item not in rank_b:
            return [f"{user!r}: {item!r} is not a candidate"]
        inv = score - 1.0 / (rank_b[item] + eta)
        rp = round(1.0 / inv - eta) if inv > 0 else -1
        lo, hi = bounds[block[item]]
        if not lo <= rp <= hi or rp in taken[block[item]]:
            return [f"{user!r}: {item!r} fused score {score!r} implies preference rank {rp}, cluster holds {lo}..{hi}"]
        if 1.0 / (rank_b[item] + eta) + 1.0 / (rp + eta) != score:
            return [f"{user!r}: {item!r} fused score {score!r} is not 1/(rank_b+eta) + 1/(rank_p+eta)"]
        taken[block[item]].add(rp)
    for a, b, pa, pb in zip(scores, scores[1:], items, items[1:]):
        if a < b or (a == b and (ref.programs[pa][1], pa) > (ref.programs[pb][1], pb)):
            return [f"{user!r}: {pa!r} and {pb!r} are out of fused order"]

    last_score, last = scores[-1], items[-1]
    last_key = (ref.programs[last][1], last)
    emitted = set(items)

    def behind(p: str, rp: int) -> bool:
        f = 1.0 / (rank_b[p] + eta) + 1.0 / (rp + eta)
        return f < last_score or (f == last_score and (ref.programs[p][1], p) > last_key)

    left: dict[int, list[str]] = defaultdict(list)
    for p in ref.candidates:
        if p not in emitted:
            left[block[p]].append(p)
    for c, members in left.items():
        lo, hi = bounds[c]
        free = [r for r in range(lo, hi + 1) if r not in taken[c]]
        # The smallest rank at which each left-out member stays behind; a
        # valid assignment exists iff pairing both sides in descending order
        # satisfies every member (Hall's condition on nested rank sets).
        needs = []
        for p in members:
            # behind() only turns true as the rank grows: bisect for it.
            i, j = 0, len(free)
            while i < j:
                mid = (i + j) // 2
                if behind(p, free[mid]):
                    j = mid
                else:
                    i = mid + 1
            if i == len(free):
                return [f"{user!r}: {p!r} would outrank the k-th item at every rank of its cluster"]
            needs.append(free[i])
        for need, r in zip(sorted(needs, reverse=True), sorted(free, reverse=True)):
            if r < need:
                return [f"{user!r}: the items left out of preference cluster {lo}..{hi} cannot all rank behind the k-th item"]
    return []
