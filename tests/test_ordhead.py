"""Paired softmax, ordinal loss, expected-label decode, confidence map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aced import gradcore as gc
from aced.gradcheck import check_gradients, project
from aced.ordhead import (
    PROB_CLAMP_EPS,
    confidence,
    expected_label,
    ordinal_loss,
    pair_softmax,
    soft_decode,
)
from aced.sid import DepthRange, encode_rank, hard_decode, make_thresholds

TH4 = make_thresholds(DepthRange(0.5, 8.0), 4)


def probs_tensor(vec) -> gc.Tensor:
    arr = np.asarray(vec, dtype=np.float64).reshape(1, -1, 1, 1)
    return gc.Tensor(arr)


def conf_numeric_oracle(p_vec: np.ndarray, p: float, step: float = 1e-5) -> float:
    """Fine-grid Riemann integration of the rank curve, split at p.

    Every integral runs on a grid anchored at 0 so the curve's unit-bin
    breakpoints sit on cell edges; the integral from p is evaluated as a
    difference of two from-zero integrals.
    """
    km1 = len(p_vec)

    def curve(xs):
        return p_vec[np.clip(np.floor(xs).astype(np.int64), 0, km1 - 1)]

    def integrate_from_zero(fn, hi):
        n = int(hi / step)
        xs = np.arange(n) * step
        return fn(xs).sum() * step + fn(np.array([n * step]))[0] * (hi - n * step)

    i1 = integrate_from_zero(curve, p)
    comp = lambda xs: 1.0 - curve(xs)
    i2 = integrate_from_zero(comp, float(km1)) - integrate_from_zero(comp, p)
    return (i1 + i2) / km1


class TestPairSoftmax:
    def test_equal_logits_give_half(self):
        z = gc.Tensor(np.full((1, 6, 2, 2), 0.37))
        out = pair_softmax(None, z)
        assert out.shape == (1, 3, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 2, 2), 0.5))

    def test_matches_sigmoid_of_difference(self):
        z = np.zeros((1, 2, 1, 1))
        z[0, 1] = 10.0
        out = pair_softmax(None, gc.Tensor(z))
        np.testing.assert_allclose(out.item(), 1.0 / (1.0 + math.exp(-10.0)), rtol=1e-15)

    def test_stable_at_extreme_logit_differences(self):
        # z_{2k+1} - z_{2k} of -800 and +800: exp would overflow unguarded.
        z = np.zeros((1, 4, 1, 1))
        z[0, 1] = -800.0
        z[0, 3] = 800.0
        out = pair_softmax(None, gc.Tensor(z))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0, 0, 0] == 0.0 and out.data[0, 1, 0, 0] == 1.0

    def test_odd_channel_count_rejected(self):
        with pytest.raises(gc.ShapeMismatchError, match="odd"):
            pair_softmax(None, gc.Tensor(np.zeros((1, 3, 1, 1))))

    def test_gradient_vs_finite_differences(self):
        rng = gc.Rng(21)
        z = gc.Tensor(rng.fill_uniform((1, 6, 3, 3), -2, 2), requires_grad=True)
        probe = rng.fill_uniform((1, 3, 3, 3))
        def build(tape):
            return project(tape, pair_softmax(tape, z), probe)
        assert check_gradients(build, [z], rng.spawn("s")) < 1e-4


class TestOrdinalLoss:
    def test_half_probs_give_k_minus_one_ln2(self):
        k = 5
        probs = gc.Tensor(np.full((1, k - 1, 2, 2), 0.5))
        for l in range(k):
            target = encode_rank(np.full((1, 1, 2, 2), l, dtype=np.int64), k)
            loss = ordinal_loss(None, probs, target)
            np.testing.assert_allclose(loss.item(), (k - 1) * math.log(2.0), rtol=1e-14)

    def test_perfect_prediction_is_near_zero(self):
        k = 5
        target = encode_rank(np.full((1, 1, 1, 1), 2, dtype=np.int64), k)
        probs = gc.Tensor(target.copy())
        loss = ordinal_loss(None, probs, target)
        expect = -(k - 1) * math.log1p(-PROB_CLAMP_EPS)
        np.testing.assert_allclose(loss.item(), expect, rtol=1e-6)
        assert loss.item() < 1e-5

    def test_hand_evaluated_example(self):
        # K=3, l=1, P=[0.8, 0.3] -> -ln 0.8 - ln 0.7
        probs = probs_tensor([0.8, 0.3])
        target = encode_rank(np.full((1, 1, 1, 1), 1, dtype=np.int64), 3)
        np.testing.assert_allclose(
            ordinal_loss(None, probs, target).item(),
            -math.log(0.8) - math.log(0.7),
            rtol=1e-12,
        )

    def test_non_monotone_target_rejected(self):
        probs = probs_tensor([0.5, 0.5])
        bad = np.array([0.0, 1.0]).reshape(1, 2, 1, 1)
        with pytest.raises(gc.DomainError, match="non-increasing"):
            ordinal_loss(None, probs, bad)

    def test_masked_mean_over_pixels(self):
        k = 3
        probs = gc.Tensor(np.full((1, 2, 1, 2), 0.5))
        target = encode_rank(np.zeros((1, 1, 1, 2), dtype=np.int64), k)
        mask = np.array([[[[1.0, 0.0]]]])
        loss = ordinal_loss(None, probs, target, mask)
        np.testing.assert_allclose(loss.item(), 2 * math.log(2.0), rtol=1e-14)

    def test_gradient_vs_finite_differences(self):
        rng = gc.Rng(31)
        z = gc.Tensor(rng.fill_uniform((1, 8, 3, 3), -2, 2), requires_grad=True)
        labels = np.array([rng.randint(0, 4) for _ in range(9)], dtype=np.int64).reshape(1, 1, 3, 3)
        target = encode_rank(labels, 5)
        def build(tape):
            return ordinal_loss(tape, pair_softmax(tape, z), target)
        assert check_gradients(build, [z], rng.spawn("s")) < 1e-4


class TestExpectedLabel:
    def test_step_vector_gives_hard_count(self):
        for l in range(5):
            bits = encode_rank(np.full((1, 1, 1, 1), l, dtype=np.int64), 5)
            assert expected_label(None, gc.Tensor(bits)).item() == float(l)

    def test_all_half_k5(self):
        probs = gc.Tensor(np.full((1, 4, 1, 1), 0.5))
        assert expected_label(None, probs).item() == 2.0

    def test_direct_summation(self):
        assert expected_label(None, probs_tensor([0.9, 0.7, 0.2])).item() == pytest.approx(1.8, rel=1e-15)

    def test_exhaustive_equivalence_with_hard_count(self):
        """All monotone binary rank vectors for K in 2..8: expected label
        equals the count of 1s that hard decode binarizes to. Exact."""
        for k in range(2, 9):
            for l in range(k):
                bits = [1.0] * l + [0.0] * (k - 1 - l)
                probs = probs_tensor(bits)
                p = expected_label(None, probs).item()
                c = int((np.asarray(bits) > 0.5).sum())
                assert p == float(c) == float(l)
                # and both decodes land at the same threshold index
                th = make_thresholds(DepthRange(0.5, 8.0), k)
                hard = hard_decode(probs, th)[0, 0, 0, 0]
                assert th.thresholds[c] < hard < th.thresholds[c + 1]

    def test_strictly_monotone_in_each_probability(self):
        base = probs_tensor([0.3, 0.6, 0.1])
        p0 = expected_label(None, base).item()
        for k in range(3):
            bumped = base.data.copy()
            bumped[0, k] += 0.05
            assert expected_label(None, gc.Tensor(bumped)).item() > p0

    @given(arrays(np.float64, (4,), elements=st.floats(0.0, 1.0)))
    @settings(max_examples=100)
    def test_range_bound(self, vec):
        p = expected_label(None, probs_tensor(vec)).item()
        assert 0.0 <= p <= 4.0


class TestConfidence:
    def _conf(self, vec):
        probs = probs_tensor(vec)
        p = expected_label(None, probs)
        return confidence(None, probs, p).item()

    def test_step_vectors_score_exactly_one(self):
        for k in range(2, 9):
            for l in range(k):
                vec = [1.0] * l + [0.0] * (k - 1 - l)
                assert self._conf(vec) == 1.0

    def test_all_half_scores_half(self):
        assert self._conf([0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_against_numeric_integration_oracle(self):
        vec = np.array([0.9, 0.7, 0.2])
        p = float(vec.sum())
        closed = self._conf(vec)
        numeric = conf_numeric_oracle(vec, p)
        assert abs(closed - numeric) < 1e-6

    def test_random_vectors_against_oracle(self):
        rng = gc.Rng(77)
        for _ in range(200):
            k = rng.randint(2, 12)
            vec = rng.fill_uniform((k - 1,))
            closed = self._conf(vec)
            numeric = conf_numeric_oracle(vec, float(vec.sum()))
            assert abs(closed - numeric) < 1e-6
            assert 0.0 <= closed <= 1.0

    def test_non_step_vectors_score_strictly_less_than_one(self):
        rng = gc.Rng(78)
        for _ in range(100):
            k = rng.randint(3, 10)
            vec = rng.fill_uniform((k - 1,), 0.05, 0.95)
            assert self._conf(vec) < 1.0 - 1e-9

    def test_gradient_vs_finite_differences(self):
        rng = gc.Rng(41)
        z = gc.Tensor(rng.fill_uniform((1, 8, 3, 3), -2, 2), requires_grad=True)
        probe = rng.fill_uniform((1, 1, 3, 3))
        def build(tape):
            probs = pair_softmax(tape, z)
            p = expected_label(tape, probs)
            return project(tape, confidence(tape, probs, p), probe)
        assert check_gradients(build, [z], rng.spawn("s")) < 1e-4


class TestSoftDecode:
    def test_step_vector_decodes_to_threshold_exactly(self):
        for l in range(4):
            bits = encode_rank(np.full((1, 1, 1, 1), l, dtype=np.int64), 4)
            out = soft_decode(None, gc.Tensor(bits), TH4)
            assert out.item() == TH4.thresholds[l]

    def test_all_half_k4(self):
        probs = gc.Tensor(np.full((1, 3, 1, 1), 0.5))
        np.testing.assert_allclose(soft_decode(None, probs, TH4).item(), 0.5 * 2**1.5, rtol=1e-12)

    def test_raising_any_probability_raises_depth(self):
        base = probs_tensor([0.4, 0.6, 0.2])
        d0 = soft_decode(None, base, TH4).item()
        for k in range(3):
            bumped = base.data.copy()
            bumped[0, k] += 0.01
            assert soft_decode(None, gc.Tensor(bumped), TH4).item() > d0

    def test_gradient_vs_finite_differences(self):
        rng = gc.Rng(51)
        z = gc.Tensor(rng.fill_uniform((1, 6, 3, 3), -2, 2), requires_grad=True)
        probe = rng.fill_uniform((1, 1, 3, 3))
        def build(tape):
            d = soft_decode(tape, pair_softmax(tape, z), TH4)
            return project(tape, d, probe)
        assert check_gradients(build, [z], rng.spawn("s")) < 1e-4

    @given(arrays(np.float64, (3,), elements=st.floats(0.0, 1.0)))
    @settings(max_examples=100)
    def test_decoded_depth_always_inside_range(self, vec):
        d = soft_decode(None, probs_tensor(vec), TH4).item()
        assert TH4.range.alpha <= d <= TH4.range.beta
