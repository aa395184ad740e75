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
    confidence,
    expected_label,
    ordinal_loss,
    pair_softmax,
)
from aced.sid import DEPTH_RANGE, encode_rank, hard_decode, label_to_depth_op, make_thresholds


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


def margins_tensor(vec) -> gc.Tensor:
    """Logits whose pair k is (0, vec[k]), so the margin d_k is vec[k]."""
    z = np.zeros((1, 2 * len(vec), 1, 1))
    z[0, 1::2, 0, 0] = vec
    return gc.Tensor(z, requires_grad=True)


def rank_target(l, k, shape=(1, 1, 1, 1)):
    return encode_rank(np.full(shape, l, dtype=np.int64), k)


class TestOrdinalLoss:
    def test_half_probs_give_k_minus_one_ln2(self):
        k = 5
        z = gc.Tensor(np.zeros((1, 2 * (k - 1), 2, 2)))  # every P^k is 1/2
        for l in range(k):
            loss = ordinal_loss(None, z, rank_target(l, k, (1, 1, 2, 2)))
            np.testing.assert_allclose(loss.item(), (k - 1) * math.log(2.0), rtol=1e-14)

    def test_perfect_prediction_is_near_zero(self):
        # Margins of +-40 on the right side of every threshold: each term is
        # log1p(exp(-40)), about 4e-18.
        k = 5
        target = rank_target(2, k)
        loss = ordinal_loss(None, margins_tensor(80.0 * target.ravel() - 40.0), target)
        np.testing.assert_allclose(loss.item(), (k - 1) * math.log1p(math.exp(-40.0)),
                                   rtol=1e-12)
        assert loss.item() < 1e-16

    def test_hand_evaluated_example(self):
        # K=3, l=1, P=[0.8, 0.3] -> -ln 0.8 - ln 0.7; P = sigmoid(d) gives
        # d = ln(P / (1 - P)).
        z = margins_tensor([math.log(0.8 / 0.2), math.log(0.3 / 0.7)])
        np.testing.assert_allclose(
            ordinal_loss(None, z, rank_target(1, 3)).item(),
            -math.log(0.8) - math.log(0.7),
            rtol=1e-12,
        )

    def test_matches_the_log_probability_form(self):
        # -sum [t*log(sigmoid(d)) + (1-t)*log(1 - sigmoid(d))] over the 18
        # pixels, with 1 - sigmoid(d) taken as sigmoid(-d) so it keeps full
        # precision.
        k = 5
        rng = gc.Rng(17)
        d = rng.fill_uniform((2, k - 1, 3, 3), -16.0, 16.0)
        d[0, :, 0, 0] = [-16.0, 16.0, 0.0, -1e-9]
        z = np.zeros((2, 2 * (k - 1), 3, 3))
        z[:, 1::2] = d
        labels = np.array([rng.randint(0, k - 1) for _ in range(18)]).reshape(2, 1, 3, 3)
        target = encode_rank(labels, k)
        sig = lambda x: 1.0 / (1.0 + np.exp(-x))
        ref = -(target * np.log(sig(d)) + (1.0 - target) * np.log(sig(-d))).sum() / 18
        assert ordinal_loss(None, gc.Tensor(z), target).item() == pytest.approx(ref, rel=1e-12)

    def test_saturated_wrong_classifier_keeps_its_gradient(self):
        # Logits (0, 20) say "deeper than the threshold" with P = 1 - 2e-9;
        # the target says not. The gradient is sigmoid(20) - 0 on the pair.
        z = margins_tensor([20.0])
        tape = gc.Tape()
        loss = ordinal_loss(tape, z, rank_target(0, 2))
        assert loss.item() == pytest.approx(20.000000002061153, rel=1e-15)
        gc.backward(loss)
        s20 = 1.0 / (1.0 + math.exp(-20.0))
        np.testing.assert_allclose(z.grad.ravel(), [-s20, s20], rtol=1e-15)

    def test_target_must_pair_with_the_logits(self):
        z = gc.Tensor(np.zeros((1, 4, 1, 1)))
        with pytest.raises(gc.ShapeMismatchError, match="pair"):
            ordinal_loss(None, z, rank_target(1, 4))
        with pytest.raises(gc.ShapeMismatchError, match="odd"):
            ordinal_loss(None, gc.Tensor(np.zeros((1, 3, 1, 1))), rank_target(1, 3))

    def test_non_monotone_target_rejected(self):
        bad = np.array([0.0, 1.0]).reshape(1, 2, 1, 1)
        with pytest.raises(gc.DomainError, match="non-increasing"):
            ordinal_loss(None, margins_tensor([0.0, 0.0]), bad)

    def test_pooled_target_is_the_loss_of_the_upsampled_logits(self):
        # Logits at half the target's resolution (f = 2) against the same
        # logits upsampled to it (f = 1): value and gradient agree.
        k = 5
        rng = gc.Rng(23)
        z_half = rng.fill_uniform((2, 2 * (k - 1), 3, 4), -12.0, 12.0)
        labels = np.array([rng.randint(0, k - 1) for _ in range(2 * 6 * 8)]).reshape(2, 1, 6, 8)
        target = encode_rank(labels, k)
        results = []
        for upsample_first in (False, True):
            z = gc.Tensor(z_half.copy(), requires_grad=True)
            tape = gc.Tape()
            logits = gc.upsample_nearest(tape, z, 2) if upsample_first else z
            loss = ordinal_loss(tape, logits, target)
            gc.backward(loss)
            results.append((loss.item(), z.grad))
        (pooled, g_pooled), (full, g_full) = results
        assert pooled == pytest.approx(full, rel=1e-12)
        np.testing.assert_allclose(g_pooled, g_full, rtol=1e-12, atol=0)

    def test_target_size_must_be_a_multiple_of_the_logits(self):
        z = gc.Tensor(np.zeros((1, 4, 2, 2)))
        for hw in ((3, 3), (5, 4), (4, 6), (1, 1)):
            with pytest.raises(gc.ShapeMismatchError, match="pair"):
                ordinal_loss(None, z, rank_target(1, 3, (1, 1, *hw)))

    def test_pooled_target_is_checked_at_full_resolution(self):
        # Children [0, 1] and [1, 0] pool to the non-increasing counts [1, 1].
        target = np.zeros((1, 2, 2, 2))
        target[0, :, 0, 0] = [0.0, 1.0]
        target[0, :, 0, 1] = [1.0, 0.0]
        with pytest.raises(gc.DomainError, match="non-increasing"):
            ordinal_loss(None, margins_tensor([0.0, 0.0]), target)

    def test_gradient_vs_finite_differences(self):
        rng = gc.Rng(31)
        z = gc.Tensor(rng.fill_uniform((1, 8, 3, 3), -2, 2), requires_grad=True)
        labels = np.array([rng.randint(0, 4) for _ in range(9)], dtype=np.int64).reshape(1, 1, 3, 3)
        target = encode_rank(labels, 5)
        def build(tape):
            return ordinal_loss(tape, z, target)
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
                t = make_thresholds(k)
                hard = hard_decode(probs.data)[0, 0, 0, 0]
                assert t[c] < hard < t[c + 1]

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

    @given(st.integers(2, 17).flatmap(
        lambda k: arrays(np.float64, (1, 2 * (k - 1), 1, 1), elements=st.floats(-800.0, 800.0))))
    @settings(max_examples=200)
    def test_decode_of_any_logits_stays_in_range(self, z):
        # Why label_to_depth needs no clamp: from any finite logits, even
        # ones that saturate every classifier, p lies in [0, K-1].
        p = expected_label(None, pair_softmax(None, gc.Tensor(z))).item()
        assert 0.0 <= p <= z.shape[1] // 2


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

    def test_a_label_of_its_own_against_oracle(self):
        # p as an input of its own, not the sum of the probabilities: at 0,
        # at every integer, at K-1 and at random points of [0, K-1].
        rng = gc.Rng(79)
        for _ in range(20):
            k = rng.randint(2, 12)
            vec = rng.fill_uniform((k - 1,))
            labels = [float(i) for i in range(k)] + [rng.next_float() * (k - 1) for _ in range(5)]
            probs = gc.Tensor(np.broadcast_to(vec.reshape(1, -1, 1, 1), (1, k - 1, 1, len(labels))))
            p = gc.Tensor(np.array(labels).reshape(1, 1, 1, -1))
            got = confidence(None, probs, p).data.reshape(-1)
            for closed, label in zip(got, labels):
                assert abs(closed - conf_numeric_oracle(vec, label)) < 1e-6

    def test_non_step_vectors_score_strictly_less_than_one(self):
        rng = gc.Rng(78)
        for _ in range(100):
            k = rng.randint(3, 10)
            vec = rng.fill_uniform((k - 1,), 0.05, 0.95)
            assert self._conf(vec) < 1.0 - 1e-9

    def test_nan_label_gives_nan_confidence(self):
        # A diverged network yields NaN labels; the confidence must carry the
        # NaN to the loss check rather than index with a garbage bin.
        probs = gc.Tensor(np.full((1, 3, 1, 2), 0.5))
        p = gc.Tensor(np.array([[[[np.nan, 1.5]]]]))
        got = confidence(None, probs, p).data
        assert np.isnan(got[0, 0, 0, 0])
        assert got[0, 0, 0, 1] == self._conf([0.5, 0.5, 0.5])

    def test_gradient_vs_finite_differences(self):
        rng = gc.Rng(41)
        z = gc.Tensor(rng.fill_uniform((1, 8, 3, 3), -2, 2), requires_grad=True)
        probe = rng.fill_uniform((1, 1, 3, 3))
        def build(tape):
            probs = pair_softmax(tape, z)
            p = expected_label(tape, probs)
            return project(tape, confidence(tape, probs, p), probe)
        assert check_gradients(build, [z], rng.spawn("s")) < 1e-4

    def test_gradient_to_probabilities_and_a_label_of_its_own(self):
        # p off the integers, where C has no kink in p.
        rng = gc.Rng(42)
        probs = gc.Tensor(rng.fill_uniform((2, 5, 3, 3)), requires_grad=True)
        bins = np.array([rng.randint(0, 4) for _ in range(18)]).reshape(2, 1, 3, 3)
        p = gc.Tensor(bins + rng.fill_uniform((2, 1, 3, 3), 0.1, 0.9), requires_grad=True)
        probe = rng.fill_uniform((2, 1, 3, 3))
        def build(tape):
            return project(tape, confidence(tape, probs, p), probe)
        assert check_gradients(build, [probs, p], rng.spawn("s"), max_entries=90) < 1e-4


def soft_decode(tape, probs):
    """Coarse depth the way network.forward decodes it: the expected label
    through the continuous inverse discretization."""
    return label_to_depth_op(tape, expected_label(tape, probs), probs.shape[1] + 1)


class TestSoftDecode:
    def test_step_vector_decodes_to_threshold_exactly(self):
        for l in range(4):
            bits = encode_rank(np.full((1, 1, 1, 1), l, dtype=np.int64), 4)
            out = soft_decode(None, gc.Tensor(bits))
            assert out.item() == make_thresholds(4)[l]

    def test_all_half_k4(self):
        probs = gc.Tensor(np.full((1, 3, 1, 1), 0.5))
        np.testing.assert_allclose(soft_decode(None, probs).item(), 0.5 * 2**1.5, rtol=1e-12)

    def test_raising_any_probability_raises_depth(self):
        base = probs_tensor([0.4, 0.6, 0.2])
        d0 = soft_decode(None, base).item()
        for k in range(3):
            bumped = base.data.copy()
            bumped[0, k] += 0.01
            assert soft_decode(None, gc.Tensor(bumped)).item() > d0

    def test_gradient_vs_finite_differences(self):
        rng = gc.Rng(51)
        z = gc.Tensor(rng.fill_uniform((1, 6, 3, 3), -2, 2), requires_grad=True)
        probe = rng.fill_uniform((1, 1, 3, 3))
        def build(tape):
            d = soft_decode(tape, pair_softmax(tape, z))
            return project(tape, d, probe)
        assert check_gradients(build, [z], rng.spawn("s")) < 1e-4

    @given(arrays(np.float64, (3,), elements=st.floats(0.0, 1.0)))
    @settings(max_examples=100)
    def test_decoded_depth_always_inside_range(self, vec):
        d = soft_decode(None, probs_tensor(vec)).item()
        assert DEPTH_RANGE.alpha <= d <= DEPTH_RANGE.beta
