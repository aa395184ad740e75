"""Discretization thresholds, label conversion, rank encoding, hard decode."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aced import gradcore as gc
from aced.sid import (
    DepthRange,
    depth_to_label,
    encode_rank,
    hard_decode,
    label_to_depth,
    label_to_depth_op,
    make_thresholds,
)

TH = make_thresholds(DepthRange(0.5, 8.0), 4)


class TestDepthRange:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 2.0), (3.0, 2.0), (2.0, 2.0)])
    def test_invalid_ranges_rejected(self, alpha, beta):
        with pytest.raises(ValueError):
            DepthRange(alpha, beta)


class TestMakeThresholds:
    def test_powers_of_two_fixture(self):
        np.testing.assert_allclose(TH.thresholds, [0.5, 1.0, 2.0, 4.0, 8.0], rtol=1e-12)

    def test_endpoints_forced(self):
        th = make_thresholds(DepthRange(0.7, 10.0), 48)
        assert math.isclose(th.thresholds[0], 0.7, rel_tol=1e-12)
        assert math.isclose(th.thresholds[-1], 10.0, rel_tol=1e-12)

    def test_constant_log_spacing_and_monotone(self):
        th = make_thresholds(DepthRange(0.7, 10.0), 48)
        t = th.thresholds
        assert len(t) == 49
        assert np.all(np.diff(t) > 0)
        gaps = np.diff(np.log(t))
        np.testing.assert_allclose(gaps, math.log(10.0 / 0.7) / 48, rtol=1e-9)

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            make_thresholds(DepthRange(0.5, 8.0), 1)

    @given(scale=st.floats(0.01, 100.0), k=st.integers(2, 32))
    @settings(max_examples=50)
    def test_uniform_scaling_scales_thresholds(self, scale, k):
        base = make_thresholds(DepthRange(0.5, 8.0), k).thresholds
        scaled = make_thresholds(DepthRange(0.5 * scale, 8.0 * scale), k).thresholds
        np.testing.assert_allclose(scaled, base * scale, rtol=1e-9)


class TestDepthToLabel:
    def test_alpha_maps_to_zero(self):
        assert depth_to_label(0.5, TH) == 0

    def test_two_meters_hits_bin_one(self):
        assert depth_to_label(2.0, TH) == 1  # t_1 < 2.0 <= t_2

    def test_above_beta_clamps(self):
        assert depth_to_label(100.0, TH) == 3

    def test_below_alpha_clamps_to_zero(self):
        assert depth_to_label(0.01, TH) == 0

    def test_non_positive_rejected(self):
        with pytest.raises(gc.DomainError):
            depth_to_label(0.0, TH)

    def test_array_input(self):
        out = depth_to_label(np.array([[[[0.5, 2.0, 100.0]]]]), TH)
        np.testing.assert_array_equal(out, [[[[0, 1, 3]]]])


class TestLabelToDepth:
    def test_endpoints(self):
        assert math.isclose(label_to_depth(0.0, TH), 0.5, rel_tol=1e-12)
        assert math.isclose(label_to_depth(4.0, TH), 8.0, rel_tol=1e-12)

    def test_fractional_label(self):
        np.testing.assert_allclose(label_to_depth(2.5, TH), 0.5 * 2**2.5, rtol=1e-12)

    def test_clamps_outside(self):
        assert label_to_depth(-3.0, TH) == label_to_depth(0.0, TH)
        assert label_to_depth(9.0, TH) == label_to_depth(4.0, TH)

    def test_tape_op_derivative(self):
        p = gc.Tensor(np.full((1, 1, 1, 1), 1.7), requires_grad=True)
        tape = gc.Tape()
        out = label_to_depth_op(tape, p, TH)
        gc.backward(out)
        expect = out.item() * math.log(8.0 / 0.5) / 4
        np.testing.assert_allclose(p.grad[0, 0, 0, 0], expect, rtol=1e-12)


class TestEncodeRank:
    def test_label_zero_all_zeros(self):
        out = encode_rank(np.zeros((1, 1, 1, 1), dtype=np.int64), 5)
        np.testing.assert_array_equal(out.reshape(-1), [0, 0, 0, 0])

    def test_label_max_all_ones(self):
        out = encode_rank(np.full((1, 1, 1, 1), 4, dtype=np.int64), 5)
        np.testing.assert_array_equal(out.reshape(-1), [1, 1, 1, 1])

    def test_prefix_pattern(self):
        out = encode_rank(np.full((1, 1, 1, 1), 3, dtype=np.int64), 6)
        np.testing.assert_array_equal(out.reshape(-1), [1, 1, 1, 0, 0])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="label out of range"):
            encode_rank(np.full((1, 1, 1, 1), 7, dtype=np.int64), 5)

    @given(label=st.integers(0, 15), k=st.integers(2, 16))
    @settings(max_examples=60)
    def test_output_always_monotone_non_increasing(self, label, k):
        bits = encode_rank(np.full((1, 1, 1, 1), min(label, k - 1), dtype=np.int64), k)
        assert np.all(np.diff(bits, axis=1) <= 0)


class TestHardDecode:
    def test_all_zeros_gives_first_midpoint(self):
        probs = np.zeros((1, 3, 1, 1))
        np.testing.assert_allclose(hard_decode(probs, TH), [[[[0.75]]]])

    def test_all_ones_gives_last_midpoint(self):
        probs = np.ones((1, 3, 1, 1))
        np.testing.assert_allclose(hard_decode(probs, TH), [[[[6.0]]]])

    def test_count_and_midpoint_by_hand(self):
        probs = np.array([0.9, 0.8, 0.2]).reshape(1, 3, 1, 1)
        np.testing.assert_allclose(hard_decode(probs, TH), [[[[3.0]]]])  # c=2 -> (2+4)/2

    def test_out_of_range_probs_rejected(self):
        with pytest.raises(gc.DomainError):
            hard_decode(np.full((1, 3, 1, 1), 1.5), TH)


class TestRoundTripInvariants:
    @given(d=st.floats(0.5000001, 8.0), k=st.integers(2, 48))
    @settings(max_examples=200)
    def test_bin_center_round_trip_stays_in_bin(self, d, k):
        th = make_thresholds(DepthRange(0.5, 8.0), k)
        l = depth_to_label(d, th)
        back = label_to_depth(l + 0.5, th)
        assert th.thresholds[l] < back <= th.thresholds[l + 1]

    @given(d=st.floats(0.5000001, 8.0), k=st.integers(2, 48))
    @settings(max_examples=200)
    def test_hard_decode_quantization_bound(self, d, k):
        th = make_thresholds(DepthRange(0.5, 8.0), k)
        l = depth_to_label(d, th)
        rank = encode_rank(np.full((1, 1, 1, 1), l, dtype=np.int64), k)
        decoded = hard_decode(rank, th)[0, 0, 0, 0]
        half_bin = (th.thresholds[l + 1] - th.thresholds[l]) / 2
        assert abs(decoded - d) <= half_bin + 1e-12

    @given(l=st.integers(0, 7), k=st.integers(2, 8))
    @settings(max_examples=60)
    def test_hard_and_soft_decode_land_in_same_bin(self, l, k):
        l = min(l, k - 1)
        th = make_thresholds(DepthRange(0.5, 8.0), k)
        rank = encode_rank(np.full((1, 1, 1, 1), l, dtype=np.int64), k)
        hard = hard_decode(rank, th)[0, 0, 0, 0]
        # expected label of a step vector is exactly l; soft depth is t_l
        soft = label_to_depth(float(rank.sum()), th)
        assert depth_to_label(hard, th) == l
        assert th.thresholds[l] <= soft <= th.thresholds[l + 1]
