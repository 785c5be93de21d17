"""Ranking metrics (nDCG/precision/recall at a cutoff), a paired significance
test, and per-user inference-latency benchmarking.

nDCG uses binary relevance with the 1/log2(position+1) discount and the ideal
DCG truncated at min(cutoff, |truth|). Users with empty ground truth cannot
be scored by recall or nDCG and are excluded from aggregation (and counted).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping, Sequence

from .errors import DataError

DEFAULT_CUTOFFS = (10, 20, 30)


def _ids(rec: Sequence, n: int) -> list[str]:
    head = rec[:n]
    if head and not isinstance(head[0], str):
        return [pid for pid, _ in head]
    return list(head)


def precision_at(rec: Sequence, truth: Collection[str], n: int) -> float:
    """Fraction of the top-n recommendations that are in the truth set."""
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    return len(set(_ids(rec, n)) & set(truth)) / n


def recall_at(rec: Sequence, truth: Collection[str], n: int) -> float:
    """Fraction of the truth set covered by the top-n recommendations; a
    truth id given twice counts once, as in :func:`ndcg_at`."""
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    if not truth:
        raise ValueError("recall is undefined for empty ground truth")
    truth_set = set(truth)
    return len(set(_ids(rec, n)) & truth_set) / len(truth_set)


def ndcg_at(rec: Sequence, truth: Collection[str], n: int) -> float:
    """Binary-relevance nDCG at cutoff n."""
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    if not truth:
        raise ValueError("nDCG is undefined for empty ground truth")
    truth_set = set(truth)
    dcg = sum(
        1.0 / math.log2(p + 1)
        for p, pid in enumerate(_ids(rec, n), 1)
        if pid in truth_set
    )
    idcg = sum(1.0 / math.log2(p + 1) for p in range(1, min(n, len(truth_set)) + 1))
    return dcg / idcg


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided paired t-test p-value over per-dataset means.

    Zero-variance differences use the degenerate convention: p = 1.0 when the
    mean difference is zero, otherwise p = 0.0. Other samples need scipy,
    which ``tvrec`` does not require: install the ``stats`` extra.
    """
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("paired t-test needs at least two pairs")
    diffs = [x - y for x, y in zip(a, b)]
    if max(diffs) == min(diffs):
        return 1.0 if diffs[0] == 0 else 0.0
    # Imported here: scipy is optional and slow to load, and no pipeline command runs the test.
    from scipy import stats

    return float(stats.ttest_rel(a, b).pvalue)


def bench(
    rank_user: Callable[[str], object], users: Sequence[str], repetitions: int = 5
) -> float:
    """Median over repetitions of (single-threaded wall-clock time to rank
    every user in the sample) / (number of users).

    Models must be prebuilt and indexed by the caller; only per-user inference
    is timed.
    """
    if not users:
        raise ValueError("benchmark user sample is empty")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    per_user: list[float] = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        for u in users:
            rank_user(u)
        per_user.append((time.perf_counter() - t0) / len(users))
    return statistics.median(per_user)


@dataclass
class MetricReport:
    """Per-method evaluation summary over the user population."""

    method: str
    cutoffs: tuple[int, ...]
    ndcg: dict[int, float] = field(default_factory=dict)
    precision: dict[int, float] = field(default_factory=dict)
    recall: dict[int, float] = field(default_factory=dict)
    n_users: int = 0
    n_skipped: int = 0
    n_missing: int = 0

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "cutoffs": list(self.cutoffs),
            "ndcg": {str(n): v for n, v in self.ndcg.items()},
            "precision": {str(n): v for n, v in self.precision.items()},
            "recall": {str(n): v for n, v in self.recall.items()},
            "n_users": self.n_users,
            "n_skipped": self.n_skipped,
            "n_missing": self.n_missing,
        }


def evaluate_rankings(
    recs: Mapping[str, Sequence],
    truths: Mapping[str, Collection[str]],
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
    method: str = "",
) -> MetricReport:
    """Aggregate the three metrics over the users of ``recs`` as unweighted means.

    Users missing from ``truths`` or with empty truth sets are skipped and
    counted in ``n_skipped``; users of ``truths`` with a truth but no ranking
    are counted in ``n_missing``. Raises ``ValueError`` when a cutoff repeats
    and :class:`DataError` when no user is scored.
    """
    if len(set(cutoffs)) != len(cutoffs):
        raise ValueError(f"cutoffs must not repeat, got {list(cutoffs)}")
    report = MetricReport(method=method, cutoffs=tuple(cutoffs))
    report.n_missing = sum(1 for user, truth in truths.items() if truth and user not in recs)
    sums = {n: [0.0, 0.0, 0.0] for n in cutoffs}
    counted = 0
    for user in sorted(recs):
        truth = truths.get(user)
        if not truth:
            report.n_skipped += 1
            continue
        counted += 1
        rec = recs[user]
        for n in cutoffs:
            acc = sums[n]
            acc[0] += ndcg_at(rec, truth, n)
            acc[1] += precision_at(rec, truth, n)
            acc[2] += recall_at(rec, truth, n)
    if not counted:
        raise DataError(f"no ranked user has a truth ({report.n_missing} with one are unranked); nothing to score")
    report.n_users = counted
    for n in cutoffs:
        acc = sums[n]
        report.ndcg[n] = acc[0] / counted
        report.precision[n] = acc[1] / counted
        report.recall[n] = acc[2] / counted
    return report


def format_table(reports: Sequence[MetricReport]) -> str:
    """Plain-text metrics table: one row per method, nDCG/precision/recall
    per cutoff, mirroring the usual results layout. Latency lives in the
    ``bench`` command's output, not here."""
    if not reports:
        return "(no results)"
    cutoffs = reports[0].cutoffs
    header = ["method".ljust(22)]
    for n in cutoffs:
        header += [f"nDCG@{n}".rjust(9), f"P@{n}".rjust(8), f"R@{n}".rjust(8)]
    lines = ["".join(header)]
    for r in reports:
        row = [r.method.ljust(22)]
        for n in cutoffs:
            row += [
                f"{r.ndcg.get(n, 0.0):9.4f}",
                f"{r.precision.get(n, 0.0):8.4f}",
                f"{r.recall.get(n, 0.0):8.4f}",
            ]
        lines.append("".join(row))
    return "\n".join(lines)
