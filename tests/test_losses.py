import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (binary_cross_entropy_from_logit, cosine_alignment_loss,
                     cosine_similarity, matched_cosine_loss_mean,
                     mil_alignment_loss, naive_bce)
from vlaad.errors import DegenerateInputError, ValidationError
from vlaad.trainer import LossBreakdown, uncertainty_weighted_total


class TestCosineAlignmentLoss:
    def test_identical_matched_zero(self):
        v = np.array([0.6, 0.8])
        assert cosine_alignment_loss(v, v, matched=True) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unmatched_zero(self):
        assert cosine_alignment_loss([1.0, 0.0], [0.0, 1.0], matched=False) == 0.0

    def test_half_cosine_both_branches(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.5, math.sqrt(3) / 2])  # cos = 0.5
        assert cosine_alignment_loss(a, b, True) == pytest.approx(0.5, abs=1e-12)
        assert cosine_alignment_loss(a, b, False) == pytest.approx(0.5, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_alignment_loss(np.zeros(3), np.ones(3), True)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_range_bounds(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert 0.0 <= cosine_alignment_loss(a, b, True) <= 2.0 + 1e-12
        assert 0.0 <= cosine_alignment_loss(a, b, False) <= 1.0 + 1e-12

    def test_zero_iff_conditions(self, rng):
        v = rng.standard_normal(4)
        assert cosine_alignment_loss(v, 2.0 * v, True) == pytest.approx(0.0, abs=1e-9)
        assert cosine_alignment_loss(v, -v, False) == 0.0
        assert cosine_alignment_loss(v, -v, True) == pytest.approx(2.0, abs=1e-9)


class TestBinaryCrossEntropy:
    def test_logit_zero(self):
        assert binary_cross_entropy_from_logit(0.0, 1) == pytest.approx(
            math.log(2.0), abs=1e-12)
        assert binary_cross_entropy_from_logit(0.0, 0) == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_weighted_example_against_naive_formula(self):
        # direct 64-bit evaluation of the naive form: 3 * log(1 + e^-2)
        expected = 3.0 * math.log1p(math.exp(-2.0))
        got = binary_cross_entropy_from_logit(2.0, 1, pos_weight=3.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(naive_bce(2.0, 1, 3.0), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-15, 15, allow_nan=False), st.integers(0, 1),
           st.floats(0.1, 10.0))
    def test_stable_equals_naive_float64(self, logit, y, pw):
        # the plain float64 oracle is itself accurate only up to |logit|~15
        # (catastrophic cancellation in 1-p beyond that)
        stable = binary_cross_entropy_from_logit(logit, y, pw)
        assert stable == pytest.approx(naive_bce(logit, y, pw), abs=1e-9)

    def test_stable_equals_naive_high_precision_to_30(self):
        import mpmath

        mpmath.mp.dps = 50
        for logit in np.linspace(-30, 30, 121):
            for y in (0, 1):
                p = 1 / (1 + mpmath.exp(-mpmath.mpf(float(logit))))
                naive = -(2.0 * y * mpmath.log(p)
                          + (1 - y) * mpmath.log(1 - p))
                stable = binary_cross_entropy_from_logit(float(logit), y, 2.0)
                assert abs(stable - float(naive)) < 1e-9

    def test_no_overflow_at_large_logits(self):
        for logit in (1e3, -1e3):
            for y in (0, 1):
                assert math.isfinite(
                    binary_cross_entropy_from_logit(logit, y, 2.0))

    def test_errors(self):
        with pytest.raises(ValidationError):
            binary_cross_entropy_from_logit(float("inf"), 1)
        with pytest.raises(ValidationError):
            binary_cross_entropy_from_logit(0.0, 2)
        with pytest.raises(ValidationError):
            binary_cross_entropy_from_logit(0.0, 1, pos_weight=0.0)


class TestMilAlignmentLoss:
    def test_single_snippet_reduces_to_matched(self, rng):
        snip = rng.standard_normal(6)
        text = rng.standard_normal(6)
        got = mil_alignment_loss(snip[None, :], text, np.array([1.0]), y=1)
        assert got == pytest.approx(
            cosine_alignment_loss(snip, text, True), abs=1e-12)

    def test_negative_orthogonal_zero(self):
        snips = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        text = np.array([0.0, 0.0, 1.0])
        assert mil_alignment_loss(snips, text, None, y=0) == 0.0

    def test_hand_weighted_sum(self):
        """a = [0.25, 0.75], cosines [1, 0] -> 0.75, against a brute loop."""
        text = np.array([1.0, 0.0])
        snips = np.array([[2.0, 0.0], [0.0, 3.0]])  # cos 1 and 0
        a = np.array([0.25, 0.75])
        got = mil_alignment_loss(snips, text, a, y=1)
        brute = sum(w * (1.0 - cosine_similarity(s, text))
                    for w, s in zip(a, snips))
        assert got == pytest.approx(0.75, abs=1e-12)
        assert got == pytest.approx(brute, abs=1e-12)

    def test_uniform_attention_equals_mean_matched(self, rng):
        snips = rng.standard_normal((4, 5))
        text = rng.standard_normal(5)
        got = mil_alignment_loss(snips, text, np.full(4, 0.25), y=1)
        assert got == pytest.approx(
            matched_cosine_loss_mean(snips, text), abs=1e-12)

    def test_unnormalized_attention_rejected(self, rng):
        snips = rng.standard_normal((2, 4))
        with pytest.raises(ValidationError):
            mil_alignment_loss(snips, rng.standard_normal(4),
                               np.array([0.5, 0.6]), y=1)
        # within tolerance 1e-6 passes
        mil_alignment_loss(snips, rng.standard_normal(4),
                           np.array([0.5, 0.5 + 5e-7]), y=1)


class TestUncertaintyWeightedTotal:
    def test_unit_variances(self):
        assert uncertainty_weighted_total(0.4, 0.6, 0.0, 0.0) == pytest.approx(
            0.5, abs=1e-12)

    def test_zero_losses(self):
        assert uncertainty_weighted_total(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_mixed_example(self):
        expected = 0.25 + 0.5 + math.log(2.0)  # direct evaluation
        got = uncertainty_weighted_total(1.0, 1.0, math.log(2.0), 0.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_may_be_negative(self):
        assert uncertainty_weighted_total(0.0, 0.0, -3.0, 0.0) < 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 10), st.floats(0, 10), st.floats(-3, 3),
           st.floats(-3, 3))
    def test_breakdown_invariant(self, l_sim, l_cls, s_sim, s_cls):
        b = LossBreakdown.compute(l_sim, l_cls, s_sim, s_cls)
        manual = (math.exp(-s_sim) / 2 * l_sim + math.exp(-s_cls) / 2 * l_cls
                  + s_sim + s_cls)
        assert b.l_total == pytest.approx(manual, abs=1e-9)

    def test_gradient_in_s_by_finite_differences(self):
        l_sim, l_cls, s_cls = 0.7, 1.3, 0.2
        step = 1e-6
        for s_sim in (-1.0, 0.0, 0.8):
            analytic = -math.exp(-s_sim) / 2 * l_sim + 1.0
            fd = (uncertainty_weighted_total(l_sim, l_cls, s_sim + step, s_cls)
                  - uncertainty_weighted_total(l_sim, l_cls, s_sim - step,
                                               s_cls)) / (2 * step)
            assert abs(fd - analytic) / max(abs(analytic), 1e-8) <= 1e-6

    def test_negative_component_rejected(self):
        with pytest.raises(ValidationError):
            LossBreakdown.compute(-0.1, 0.0, 0.0, 0.0)
