"""compute_metrics on a hand-computed 2x2 example, and its input checks: a
depth map must be finite and positive, and so must every metric. depth_fault,
which infer shares, names a non-finite fault before a non-positive one.
pool_metrics weights each report by its pixels and pools rms as the root of
the mean square, and rejects a pooled metric that overflows."""

import math

import numpy as np
import pytest

from aced.metrics import MetricReport, MetricsError, compute_metrics, depth_fault, pool_metrics


def _map(values):
    return np.array(values, dtype=np.float64).reshape(1, 1, 2, 2)


# Ratios max(d/gt, gt/d) are 1.0, 1.5, 1.8 and 2.0: one under each of the
# thresholds 1.25, 1.25**2 = 1.5625 and 1.25**3 = 1.953125, and one above all.
GT = _map([1.0, 2.0, 5.0, 4.0])
PRED = _map([1.0, 3.0, 9.0, 2.0])


def test_hand_computed_example():
    rep = compute_metrics(PRED, GT, plane_depth=3.0)
    assert rep.rel == pytest.approx((0.0 + 0.5 + 0.8 + 0.5) / 4, rel=1e-14)
    assert rep.log10 == pytest.approx(math.log10(1.5 * 1.8 * 2.0) / 4, rel=1e-14)
    assert rep.rms == pytest.approx(math.sqrt((0.0 + 1.0 + 16.0 + 4.0) / 4), rel=1e-14)
    assert (rep.delta1, rep.delta2, rep.delta3) == (25.0, 50.0, 75.0)
    # Near the plane at 3: predictions 1, 3, 2 and ground truth 1, 2; only
    # the last pixel (pred 2 near, gt 4 far) disagrees.
    assert rep.dde == 75.0
    assert rep.pixel_count == 4


def test_plane_depth_moves_dde():
    # At 4.5 the third pixel (pred 9, gt 5) is far on both sides and every
    # other pixel is near on both.
    assert compute_metrics(PRED, GT, plane_depth=4.5).dde == 100.0


def test_shape_mismatch_is_rejected():
    with pytest.raises(MetricsError, match="shape mismatch"):
        compute_metrics(PRED, GT.reshape(1, 1, 4, 1))


@pytest.mark.parametrize("which", ["pred", "gt"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_non_positive_depth_is_rejected(which, bad):
    pred, gt = PRED.copy(), GT.copy()
    (pred if which == "pred" else gt)[0, 0, 1, 0] = bad
    with pytest.raises(MetricsError, match="non-positive depth"):
        compute_metrics(pred, gt)


@pytest.mark.parametrize("which", ["pred", "gt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_depth_is_rejected(which, bad):
    pred, gt = PRED.copy(), GT.copy()
    (pred if which == "pred" else gt)[0, 0, 1, 0] = bad
    what = "predicted" if which == "pred" else "ground-truth"
    with pytest.raises(MetricsError, match=f"^non-finite depth: 1 of 4 {what} pixels$"):
        compute_metrics(pred, gt)


@pytest.mark.parametrize("values, fault", [
    ([1.0, 2.0, 5.0, 4.0], None),
    ([1.0, 0.0, -2.0, 4.0], ("non-positive", 2)),
    ([np.nan, 0.0, -np.inf, 4.0], ("non-finite", 2)),
])
def test_depth_fault(values, fault):
    assert depth_fault(_map(values)) == fault


def test_a_metric_that_overflows_is_rejected():
    # 1e300 is finite, but its squared error is not.
    pred = PRED.copy()
    pred[0, 0, 1, 0] = 1e300
    with pytest.raises(MetricsError, match="^non-finite metric: rms$"):
        compute_metrics(pred, GT)


def _report(pixel_count, value, rms):
    return MetricReport(rel=value, log10=value / 2, rms=rms, delta1=100 * value,
                        delta2=100.0, delta3=100.0, dde=50 * value, pixel_count=pixel_count)


def test_pool_weights_each_report_by_its_pixels():
    pooled = pool_metrics([_report(1, 0.25, 1.0), _report(3, 0.75, 3.0)])
    assert pooled.rel == (1 * 0.25 + 3 * 0.75) / 4 == 0.625
    assert pooled.log10 == 0.3125
    assert pooled.rms == math.sqrt((1 * 1.0**2 + 3 * 3.0**2) / 4)
    assert (pooled.delta1, pooled.delta2, pooled.delta3, pooled.dde) == (62.5, 100.0, 100.0, 31.25)
    assert pooled.pixel_count == 4


def test_pool_squares_each_rms_correctly_rounded():
    # x * x is correctly rounded; numpy's scalar pow gives 3.544967557839694
    # a square one ulp higher, which moves this pool's rms by one ulp.
    a, b = 3.544967557839694, 0.939
    pooled = pool_metrics([_report(1, 0.5, a), _report(1, 0.5, b)])
    assert pooled.rms == math.sqrt((a * a + b * b) / 2)


def test_a_pooled_metric_that_overflows_is_rejected():
    # 1e200 is a finite rms, but its square is not.
    with pytest.raises(MetricsError, match="^non-finite metric: rms$"):
        pool_metrics([_report(1, 0.25, 1e200)])
