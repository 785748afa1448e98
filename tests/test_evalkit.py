import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from oracles import (brute_force_auc, exhaustive_youden, midranks_loop,
                     roc_auc_trapezoid, v20_penalty_product,
                     wilcoxon_brute_force_p, youden_threshold_matrix)
from vlaad.errors import ValidationError
from vlaad.evalkit import (DEFAULT_V21_COEFFICIENTS, DrivingRunRecord,
                           _midranks,
                           ScoredSet, WilcoxonResult, infraction_penalty,
                           read_run_records, roc_auc,
                           summarize_run, threshold_metrics,
                           wilcoxon_signed_rank, youden_threshold)


def scored(scores, labels):
    return ScoredSet(np.asarray(scores, float), np.asarray(labels))


class TestRocAuc:
    def test_worked_example(self):
        s = scored([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert roc_auc(s) == pytest.approx(0.75, abs=1e-12)
        assert brute_force_auc(s.scores, s.labels) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert roc_auc(scored([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0

    def test_all_ties_half(self):
        assert roc_auc(scored([0.5] * 6, [0, 1, 0, 1, 0, 1])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc(scored([0.1, 0.2], [1, 1]))

    @pytest.mark.parametrize("scores, labels, message", [
        ([[0.1, 0.2]], [[0, 1]], "scores and labels must be equal-length 1-D"),
        ([0.1, 0.2], [0, 1, 1], "scores and labels must be equal-length 1-D"),
        ([], [], "scored set must be non-empty"),
        ([0.1, np.nan], [0, 1], "scores must be finite"),
        ([0.1, 0.2], [0, 2], "labels must be 0 or 1"),
    ], ids=["two_d", "lengths", "empty", "nan", "label_2"])
    def test_scored_set_refusals(self, scores, labels, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            scored(scores, labels)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 30))
    def test_matches_brute_force_and_trapezoid(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = np.zeros(n, dtype=int)
        labels[: n // 2 + 1][: max(1, n // 2)] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), 2)  # induce ties
        s = scored(scores, labels)
        auc = roc_auc(s)
        assert auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)
        assert auc == pytest.approx(roc_auc_trapezoid(s), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_invariance_and_label_flip(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(12)
        labels = np.array([0, 1] * 6)
        base = roc_auc(scored(scores, labels))
        monotone = np.exp(3.0 * scores) + 5.0  # strictly increasing map
        assert roc_auc(scored(monotone, labels)) == pytest.approx(base, abs=1e-12)
        assert roc_auc(scored(scores, 1 - labels)) == pytest.approx(
            1.0 - base, abs=1e-12)


class TestYouden:
    def test_worked_example(self):
        res = youden_threshold(scored([0.1, 0.2, 0.7, 0.9], [0, 0, 1, 1]))
        assert res.threshold == pytest.approx(0.45)
        assert res.j_statistic == pytest.approx(1.0)
        assert not res.degenerate

    def test_inverted_scores_degenerate(self):
        res = youden_threshold(scored([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]))
        assert res.j_statistic == pytest.approx(0.0)
        assert res.degenerate

    def test_smallest_maximizer_tie_break(self):
        res = youden_threshold(scored([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]))
        # every cut between 0.2 and 0.8 attains J=1; the midpoint 0.5 is the
        # only listed candidate there, below-min would give J=0
        assert res.threshold == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(3, 25))
    def test_attains_exhaustive_maximum(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(0, 1, n), 2)
        labels = (rng.uniform(0, 1, n) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        s = scored(scores, labels)
        res = youden_threshold(s)
        best, candidates = exhaustive_youden(scores, labels)
        assert res.j_statistic == pytest.approx(best, abs=1e-12)
        m = threshold_metrics(s, res.threshold)
        assert m["tpr"] - m["fpr"] == pytest.approx(best, abs=1e-12)


# few distinct values, so ties are heavy; adjacent doubles, whose midpoint
# rounds onto one of them, and signed zeros, which compare equal
_ONE_UP = float(np.nextafter(1.0, 2.0))
TIE_POOL = [0.0, -0.0, 0.5, 1.0, _ONE_UP, float(np.nextafter(_ONE_UP, 2.0)),
            -3.25, 2.0, 5e-324, 1e300, -1e300]
tie_heavy = st.lists(st.tuples(st.sampled_from(TIE_POOL), st.integers(0, 1)),
                     min_size=2, max_size=300)


class TestSortedAgainstOracles:
    """The sort-based ranks and Youden cut equal the loop and matrix ones."""

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy)
    def test_midranks(self, pairs):
        values = np.array([v for v, _ in pairs])
        ranks = _midranks(values)
        assert ranks.tobytes() == midranks_loop(values).tobytes()
        assert ranks.tobytes() == scipy_stats.rankdata(values).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy)
    def test_youden(self, pairs):
        labels = np.array([y for _, y in pairs])
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        s = scored([v for v, _ in pairs], labels)
        assert tuple(youden_threshold(s)) == youden_threshold_matrix(s)


class TestThresholdMetrics:
    def test_perfect(self):
        m = threshold_metrics(scored([0.1, 0.9], [0, 1]), 0.5)
        assert m["f1"] == 1.0 and m["accuracy"] == 1.0

    def test_no_predicted_positives_f1_zero(self):
        m = threshold_metrics(scored([0.1, 0.2], [0, 1]), 0.5)
        assert m["f1"] == 0.0

    def test_rates_zero_without_their_class(self):
        """No negatives: fpr is 0 by convention; no positives: tpr is 0."""
        m = threshold_metrics(scored([0.1, 0.9, 0.7], [1, 1, 1]), 0.5)
        assert m["fpr"] == 0.0 and m["tpr"] == pytest.approx(2 / 3)
        m = threshold_metrics(scored([0.1, 0.9, 0.7], [0, 0, 0]), 0.5)
        assert m["tpr"] == 0.0 and m["fpr"] == pytest.approx(2 / 3)

    def test_confusion_example(self):
        m = threshold_metrics(scored([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]),
                              0.375)
        assert m["f1"] == pytest.approx(0.5)
        assert m["accuracy"] == pytest.approx(0.5)
        assert m["tpr"] == pytest.approx(0.5)
        assert m["fpr"] == pytest.approx(0.5)


class TestInfractionPenalty:
    def test_zero_infractions_ideal(self):
        assert infraction_penalty({}, {}, "v20") == 1.0
        assert infraction_penalty({}, {}, "v21") == 1.0
        assert infraction_penalty({"vehicle": 0}, DEFAULT_V21_COEFFICIENTS,
                                  "v21") == 1.0

    def test_v21_default_coefficients(self):
        assert infraction_penalty({"pedestrian": 1},
                                  DEFAULT_V21_COEFFICIENTS, "v21") == 0.5
        got = infraction_penalty({"vehicle": 2, "pedestrian": 1},
                                 DEFAULT_V21_COEFFICIENTS, "v21")
        assert got == pytest.approx(1.0 / 3.4, abs=1e-12)

    def test_v20_square(self):
        assert infraction_penalty({"vehicle": 2}, {"vehicle": 0.5},
                                  "v20") == pytest.approx(0.25)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_v20_matches_product_oracle(self, seed):
        rng = np.random.default_rng(seed)
        kinds = ["pedestrian", "vehicle", "layout", "red_light"]
        counts = {k: int(rng.integers(0, 5)) for k in kinds}
        weights = {k: float(rng.uniform(0.3, 1.0)) for k in kinds}
        got = infraction_penalty(counts, weights, "v20")
        assert got == pytest.approx(v20_penalty_product(counts, weights),
                                    rel=1e-12)

    def test_monotone_decreasing(self):
        base = infraction_penalty({"vehicle": 1}, DEFAULT_V21_COEFFICIENTS, "v21")
        more = infraction_penalty({"vehicle": 2}, DEFAULT_V21_COEFFICIENTS, "v21")
        assert more < base
        v20_base = infraction_penalty({"vehicle": 1}, {"vehicle": 0.6}, "v20")
        v20_more = infraction_penalty({"vehicle": 2}, {"vehicle": 0.6}, "v20")
        assert v20_more < v20_base

    def test_validation(self):
        with pytest.raises(ValidationError):
            infraction_penalty({"vehicle": -1}, {"vehicle": 0.5}, "v20")
        with pytest.raises(ValidationError):
            infraction_penalty({"vehicle": 1}, {}, "v21")
        with pytest.raises(ValidationError):
            infraction_penalty({"vehicle": 1}, {"vehicle": 1.5}, "v20")
        with pytest.raises(ValidationError):
            infraction_penalty({"vehicle": 1}, {"vehicle": 0.5}, "v19")

    @pytest.mark.parametrize("count", [0, 1])
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_v21_non_finite_coefficient(self, c, count):
        """NaN passes a ``c < 0`` test, and inf * 0 is NaN: both named."""
        with pytest.raises(ValidationError, match=(
                rf"^v2\.1 coefficient for 'vehicle' must be finite, got {c!r}$")):
            infraction_penalty({"vehicle": count}, {"vehicle": c}, "v21")


class TestSummarizeRun:
    def test_composition(self):
        rec = DrivingRunRecord("r1", km=4.0, route_completion=50.0,
                               infractions={"pedestrian": 1})
        out = summarize_run(rec, version="v21")
        assert out["IS"] == pytest.approx(0.5)
        assert out["DS"] == pytest.approx(25.0)
        assert out["Col_per_km"] == pytest.approx(0.25)

    def test_ideal_run(self):
        rec = DrivingRunRecord("r2", km=5.0, route_completion=100.0)
        assert summarize_run(rec)["DS"] == 100.0

    def test_col_per_km(self):
        rec = DrivingRunRecord("r3", km=10.0, route_completion=80.0,
                               infractions={"vehicle": 10, "pedestrian": 6})
        assert summarize_run(rec)["Col_per_km"] == pytest.approx(1.6)

    def test_km_zero_rules(self):
        with_col = DrivingRunRecord("r4", km=0.0, route_completion=0.0,
                                    infractions={"vehicle": 1})
        with pytest.raises(ValidationError):
            summarize_run(with_col)
        clean = DrivingRunRecord("r5", km=0.0, route_completion=0.0)
        assert summarize_run(clean)["Col_per_km"] == 0.0

    def test_v20_requires_weights(self):
        rec = DrivingRunRecord("r6", km=1.0, route_completion=10.0,
                               infractions={"vehicle": 1})
        with pytest.raises(ValidationError):
            summarize_run(rec, version="v20")
        rec.penalty_weights = {"vehicle": 0.6}
        assert summarize_run(rec, version="v20")["IS"] == pytest.approx(0.6)

    def test_jsonl_ingestion(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        rows = [{"route_id": "t13_00", "km": 12.5, "route_completion": 40.0,
                 "infractions": {"vehicle": 2, "pedestrian": 1}},
                {"route_id": "t13_01", "km": 8.0, "route_completion": 90.0,
                 "infractions": {}}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        records = read_run_records(path)
        assert [r.route_id for r in records] == ["t13_00", "t13_01"]
        assert summarize_run(records[1])["DS"] == 90.0


def deltas_with_w(excluded, n=20):
    """Distinct-magnitude deltas 1..n, negated on the excluded ranks."""
    d = np.arange(1.0, n + 1.0)
    d[[e - 1 for e in excluded]] *= -1
    return d


class TestWilcoxon:
    def test_all_positive_n3(self):
        res = wilcoxon_signed_rank([0.3, 1.2, 2.0])
        assert res.statistic == 6.0
        assert res.n_effective == 3
        assert res.method == "exact"
        assert res.p_one_sided == pytest.approx(0.125, abs=1e-12)

    def test_reference_route_values_exact(self):
        targets = {(10, 18, 20): (162.0, 0.016),
                   (1, 19, 20): (170.0, 0.007),
                   (7, 15, 16, 17, 18, 19, 20): (98.0, 0.608)}
        for excluded, (w, p_ref) in targets.items():
            res = wilcoxon_signed_rank(deltas_with_w(excluded))
            assert res.statistic == w
            assert res.method == "exact"
            assert abs(res.p_one_sided - p_ref) <= 0.005

    def test_zeros_dropped(self):
        res = wilcoxon_signed_rank([0.0, 0.0, 1.0, 2.0, -0.5])
        assert res.n_effective == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            wilcoxon_signed_rank([0.0, 0.0])

    @pytest.mark.parametrize("deltas, message", [
        ([], "deltas is empty; no pairs to test"),
        ([[1.0, 2.0]], "deltas must be 1-D"),
        ([np.nan, 1.0], "deltas must be finite"),
    ], ids=["empty", "two_d", "nan"])
    def test_refusals(self, deltas, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            wilcoxon_signed_rank(deltas)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 11),
           st.sampled_from([1, 0]))
    def test_matches_brute_force_enumeration(self, seed, n, decimals):
        """Both sides count sign patterns exactly, so W and p agree to the
        bit; rounding to integers gives heavy ties among the magnitudes."""
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        d[d == 0] = 0.5
        d = np.round(d, decimals)  # induce tied magnitudes
        if np.all(d == 0):
            d[0] = 0.7
        res = wilcoxon_signed_rank(d)
        w_ref, p_ref = wilcoxon_brute_force_p(d)
        assert res.statistic == w_ref
        assert res.p_one_sided == p_ref

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12))
    def test_sign_flip_antisymmetry(self, seed, n):
        """P(W >= w) + P(W >= M - w + 1) = 1 on the integer support."""
        import itertools

        rng = np.random.default_rng(seed)
        d = np.unique(np.abs(rng.standard_normal(n * 2)))[:n]  # distinct magn.
        d = d * rng.choice([-1.0, 1.0], size=d.size)
        res = wilcoxon_signed_rank(d)
        k = d.size
        m = k * (k + 1) // 2
        mirrored = wilcoxon_signed_rank(-d)
        assert mirrored.statistic == pytest.approx(m - res.statistic)
        # enumerate the integer support directly
        sums = [sum(c) for r in range(k + 1)
                for c in itertools.combinations(range(1, k + 1), r)]
        w = int(round(res.statistic))
        count_ge = sum(s >= w for s in sums)
        count_ge_mirror = sum(s >= m - w + 1 for s in sums)
        assert count_ge + count_ge_mirror == 2 ** k
        assert res.p_one_sided == pytest.approx(count_ge / 2 ** k, abs=1e-12)

    def test_matches_scipy_exact_when_no_ties(self):
        rng = np.random.default_rng(5)
        for n in (6, 10, 15, 20):
            d = rng.standard_normal(n)
            while np.unique(np.abs(d)).size != n or np.any(d == 0):
                d = rng.standard_normal(n)
            res = wilcoxon_signed_rank(d)
            ref = scipy_stats.wilcoxon(d, alternative="greater", method="exact")
            assert res.statistic == pytest.approx(ref.statistic)
            assert res.p_one_sided == pytest.approx(ref.pvalue, rel=1e-12)

    def test_normal_approximation_close_to_exact_at_n20(self):
        for excluded in ((10, 18, 20), (1, 19, 20),
                         (7, 15, 16, 17, 18, 19, 20)):
            d = deltas_with_w(excluded)
            exact = wilcoxon_signed_rank(d)
            padded = np.concatenate([d, [21.0]])  # push past the exact cap
            assert padded.size == 21
            approx = wilcoxon_signed_rank(padded)
            assert approx.method == "normal"
            # and the pure normal formula at n=20 agrees within 0.02
            mu = 20 * 21 / 4.0
            sig = math.sqrt(20 * 21 * 41 / 24.0)
            p_normal = 0.5 * math.erfc((exact.statistic - mu)
                                       / (sig * math.sqrt(2.0)))
            assert abs(p_normal - exact.p_one_sided) <= 0.02

    def test_continuity_correction_label(self):
        d = np.arange(1.0, 26.0)
        res = wilcoxon_signed_rank(d, continuity=True)
        assert res.method == "normal_cc"
        assert wilcoxon_signed_rank(d).method == "normal"

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 24))
    def test_statistic_bounds(self, seed, n):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        d[d == 0] = 0.25
        res = wilcoxon_signed_rank(d)
        assert 0.0 <= res.statistic <= res.n_effective * (res.n_effective + 1) / 2

    def test_result_invariant_enforced(self):
        with pytest.raises(ValidationError):
            WilcoxonResult(statistic=100.0, n_effective=3, p_one_sided=0.5,
                           method="exact")
