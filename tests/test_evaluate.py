import math
import time
import types

import pytest

import tvrec.evaluate as evaluate_mod
from tvrec.errors import DataError
from tvrec.evaluate import (
    MetricReport,
    bench,
    evaluate_rankings,
    format_table,
    ndcg_at,
    paired_ttest,
    precision_at,
    recall_at,
)

REC = ["i1", "i2", "i3"]
TRUTH = {"i1", "i3"}


def test_precision_examples():
    assert precision_at(REC, TRUTH, 3) == pytest.approx(2 / 3)
    assert precision_at(REC, {"x"}, 3) == 0.0
    assert precision_at(REC, {"i1", "i2", "i3", "i9"}, 3) == 1.0


def test_recall_examples():
    assert recall_at(REC, TRUTH, 3) == 1.0
    assert recall_at(REC, {"i1", "i9"}, 1) == 0.5
    assert recall_at(REC, {"x", "y"}, 3) == 0.0


def test_recall_counts_a_repeated_truth_once_as_ndcg_does():
    assert recall_at(["a"], ["a", "a"], 1) == 1.0 == ndcg_at(["a"], ["a", "a"], 1)
    assert recall_at(["a", "b"], ["a", "c", "a", "c"], 2) == 0.5


def test_recall_full_cutoff_covers_contained_truth():
    rec = [f"i{j}" for j in range(20)]
    truth = {"i3", "i11", "i19"}
    assert recall_at(rec, truth, len(rec)) == 1.0


def test_ndcg_hand_case():
    got = ndcg_at(REC, TRUTH, 3)
    assert got == pytest.approx((1 + 1 / math.log2(4)) / (1 + 1 / math.log2(3)), abs=1e-12)
    assert got == pytest.approx(0.9197, abs=1e-4)


def test_ndcg_perfect_ranking_is_one():
    assert ndcg_at(["a", "b", "c"], {"a", "b"}, 3) == pytest.approx(1.0)
    assert ndcg_at(["a", "b"], {"a", "b"}, 2) == pytest.approx(1.0)


def test_ndcg_no_hits_is_zero():
    assert ndcg_at(REC, {"zzz"}, 3) == 0.0


def test_metrics_bounded_and_ignore_tail():
    rec = [f"i{j}" for j in range(50)]
    truth = {"i0", "i7", "i49"}
    for n in (1, 5, 10):
        extended = rec[:n] + ["extra1", "extra2"]
        for fn in (precision_at, recall_at, ndcg_at):
            a = fn(rec, truth, n)
            b = fn(extended, truth, n)
            assert a == b
            assert 0.0 <= a <= 1.0


def test_metrics_accept_scored_pairs():
    scored = [("i1", 0.9), ("i2", 0.5), ("i3", 0.1)]
    assert precision_at(scored, TRUTH, 3) == pytest.approx(2 / 3)
    assert recall_at(scored, TRUTH, 3) == 1.0


def test_empty_truth_rejected():
    with pytest.raises(ValueError):
        recall_at(REC, set(), 3)
    with pytest.raises(ValueError):
        ndcg_at(REC, set(), 3)


def test_paired_ttest_identical_samples():
    assert paired_ttest([0.5, 0.6, 0.7, 0.8], [0.5, 0.6, 0.7, 0.8]) == 1.0


def test_paired_ttest_constant_nonzero_difference():
    assert paired_ttest([2, 3, 4, 5], [1, 2, 3, 4]) == 0.0


def test_paired_ttest_matches_t_distribution_oracle():
    # differences [0.5, 0.3, 0.4, 0.6]; expected p computed by quadrature of
    # the t pdf (df=3) with mpmath, frozen here.
    a = [0.95, 0.83, 0.94, 0.86]
    b = [0.45, 0.53, 0.54, 0.26]
    frozen = 0.006056848795908
    assert paired_ttest(a, b) == pytest.approx(frozen, abs=1e-12)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    diffs = [x - y for x, y in zip(a, b)]
    n = len(diffs)
    mean = mp.mpf(sum(diffs)) / n
    var = sum((mp.mpf(d) - mean) ** 2 for d in diffs) / (n - 1)
    t = mean / mp.sqrt(var / n)
    df = n - 1

    def t_pdf(x):
        c = mp.gamma((df + 1) / mp.mpf(2)) / (mp.sqrt(df * mp.pi) * mp.gamma(df / mp.mpf(2)))
        return c * (1 + x * x / df) ** (-(df + 1) / mp.mpf(2))

    oracle = 2 * mp.quad(t_pdf, [t, mp.inf])
    assert paired_ttest(a, b) == pytest.approx(float(oracle), rel=1e-9)


def test_paired_ttest_validates_inputs():
    with pytest.raises(ValueError):
        paired_ttest([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        paired_ttest([1], [2])


def _busy(units: int):
    acc = 0
    for i in range(units * 2000):
        acc += i * i
    return acc


def test_bench_superset_work_takes_longer():
    users = [f"u{i}" for i in range(20)]
    small = bench(lambda u: _busy(1), users, repetitions=3)
    large = bench(lambda u: (_busy(1), _busy(1)), users, repetitions=3)
    assert large >= small


def _scripted_clock(monkeypatch, durations):
    """Make ``time.perf_counter``, as tvrec.evaluate sees it, time each
    repetition at the next of ``durations`` seconds (all exact binary fractions)."""
    ticks, now = [], 0.0
    for d in durations:
        ticks += [now, now + d]
        now += d
    reads = iter(ticks)
    monkeypatch.setattr(evaluate_mod, "time", types.SimpleNamespace(perf_counter=lambda: next(reads)))
    return reads


def test_bench_repeat_measurement_is_stable(monkeypatch):
    users = [f"u{i}" for i in range(25)]
    calls = []
    steady = _scripted_clock(monkeypatch, [0.25, 0.375, 0.5, 0.375, 0.25])
    first = bench(calls.append, users, repetitions=5)
    assert next(steady, None) is None
    # One repetition slowed 16-fold, as by a busy neighbour, leaves the median where it was.
    slowed = _scripted_clock(monkeypatch, [0.25, 0.375, 8.0, 0.375, 0.25])
    second = bench(calls.append, users, repetitions=5)
    assert next(slowed, None) is None
    assert first == second == 0.375 / 25
    assert calls == users * 10


def test_bench_rejects_empty_sample():
    with pytest.raises(ValueError):
        bench(lambda u: None, [], repetitions=1)


def test_evaluate_rankings_aggregates_and_skips_empty_truth():
    recs = {"u1": REC, "u2": REC, "u3": REC}
    truths = {"u1": TRUTH, "u2": set(), "u3": {"i2"}}
    report = evaluate_rankings(recs, truths, cutoffs=(1, 3), method="demo")
    assert report.n_users == 2
    assert report.n_skipped == 1
    assert report.precision[3] == pytest.approx((2 / 3 + 1 / 3) / 2)
    assert report.recall[3] == pytest.approx((1.0 + 1.0) / 2)
    assert all(0.0 <= v <= 1.0 for d in (report.ndcg, report.precision, report.recall) for v in d.values())


def test_evaluate_rankings_counts_truth_users_without_a_ranking():
    truths = {"u1": TRUTH, "u2": {"i2"}, "u3": set(), "u4": {"i9"}}
    report = evaluate_rankings({"u1": REC, "u5": REC}, truths, cutoffs=(3,))
    assert (report.n_users, report.n_skipped, report.n_missing) == (1, 1, 2)
    assert report.to_dict()["n_missing"] == 2
    assert report.ndcg[3] == ndcg_at(REC, TRUTH, 3)


def test_evaluate_rankings_refuses_when_no_ranked_user_has_truth():
    for recs in ({"u9": REC}, {"u3": REC}, {}):
        with pytest.raises(DataError, match="nothing to score"):
            evaluate_rankings(recs, {"u1": TRUTH, "u3": set()}, cutoffs=(3,))


def test_evaluate_rankings_rejects_repeated_cutoffs():
    with pytest.raises(ValueError, match="repeat"):
        evaluate_rankings({"u1": REC}, {"u1": TRUTH}, cutoffs=(3, 3))


def test_format_table_mentions_every_method_and_cutoff():
    r = MetricReport(method="two-stage", cutoffs=(10, 20), ndcg={10: 0.5, 20: 0.4},
                     precision={10: 0.3, 20: 0.2}, recall={10: 0.1, 20: 0.2},
                     n_users=5)
    text = format_table([r])
    assert "two-stage" in text
    assert "nDCG@10" in text and "R@20" in text
    assert "0.5000" in text and "0.2000" in text
