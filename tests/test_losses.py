"""total_loss: the terms it reports are the terms it sums; the regression
losses are plain means over all pixels."""

import math

import numpy as np
import pytest

from aced import gradcore as gc
from aced.gradcheck import check_gradients
from aced.losses import loss_grad, loss_log, total_loss
from aced.ordhead import ordinal_loss
from aced.sid import encode_rank
from conftest import RecordingTape

K = 5


def _inputs():
    rng = gc.Rng(gc.derive_seed(0, "total_loss"))
    z = gc.Tensor(rng.fill_uniform((2, 2 * (K - 1), 4, 4), -2, 2), requires_grad=True)
    refined = gc.Tensor(rng.fill_uniform((2, 1, 4, 4), 0.6, 7.0), requires_grad=True)
    gt = rng.fill_uniform((2, 1, 4, 4), 0.6, 7.0)
    labels = np.array([rng.randint(0, K - 1) for _ in range(32)]).reshape(2, 1, 4, 4)
    return z, encode_rank(labels, K), refined, gt


def _alone(logits, target, refined, gt):
    return {
        "loss_ord": ordinal_loss(None, logits, target).item(),
        "loss_log": loss_log(None, refined, gt).item(),
        "loss_grad": loss_grad(None, refined, gt).item(),
    }


def test_parts_are_the_summed_terms():
    z, target, refined, gt = _inputs()
    tape = RecordingTape()
    loss, parts = total_loss(tape, z, target, refined, gt, w_log=1.3, w_grad=2.1)
    alone = _alone(z, target, refined, gt)
    assert parts == alone
    assert loss.item() == ((alone["loss_ord"] + 1.3 * alone["loss_log"])
                           + 2.1 * alone["loss_grad"])
    assert tape.names.count("scale") == 2 and tape.names.count("add") == 2


@pytest.mark.parametrize("zeroed,op", [("w_log", "loss_log"), ("w_grad", "loss_grad")])
def test_zero_weight_term_is_reported_off_the_tape(zeroed, op):
    z, target, refined, gt = _inputs()
    tape = RecordingTape()
    loss, parts = total_loss(tape, z, target, refined, gt, **{zeroed: 0.0})
    alone = _alone(z, target, refined, gt)
    assert parts == alone
    assert op not in tape.names
    assert tape.names.count("scale") == 1
    kept = [key for key in ("loss_ord", "loss_log", "loss_grad") if key != "loss_" + zeroed[2:]]
    assert loss.item() == alone[kept[0]] + alone[kept[1]]
    gc.backward(loss)


def test_loss_grad_counts_the_zero_difference_edge():
    # d = [[1, 2], [3, 5]] against a flat ground truth. Along x the
    # differences are 1 and 2 with a zero last column; along y they are 2
    # and 3 with a zero last row. Each zero edge term is ln(0.5), and each
    # direction is a mean over all 4 pixels.
    d = gc.Tensor(np.array([[[[1.0, 2.0], [3.0, 5.0]]]]), requires_grad=True)
    gt = np.ones((1, 1, 2, 2))
    tape = gc.Tape()
    loss = loss_grad(tape, d, gt)
    ln = math.log
    x_term = (ln(1.5) + ln(2.5) + 2 * ln(0.5)) / 4
    y_term = (ln(2.5) + ln(3.5) + 2 * ln(0.5)) / 4
    assert loss.item() == pytest.approx(x_term + y_term, rel=1e-14)
    gc.backward(loss)
    # d/dd of ln(|e| + 0.5) / 4 is sign(e) / (|e| + 0.5) / 4 on both pixels
    # of each stencil; the edge terms have e = 0 and add nothing.
    x00, x10 = 1 / 1.5 / 4, 1 / 2.5 / 4
    y00, y01 = 1 / 2.5 / 4, 1 / 3.5 / 4
    expect = np.array([[[[-x00 - y00, x00 - y01], [-x10 + y00, x10 + y01]]]])
    np.testing.assert_allclose(d.grad, expect, rtol=1e-14)


def test_loss_grad_on_a_non_square_map_matches_a_loop_over_pixels():
    # 3 rows by 6 columns, so an x difference taken along y (or the reverse)
    # changes the value and the gradient.
    rng = gc.Rng(gc.derive_seed(0, "loss_grad_non_square"))
    d = gc.Tensor(rng.fill_uniform((2, 1, 3, 6), 0.6, 7.0), requires_grad=True)
    gt = rng.fill_uniform((2, 1, 3, 6), 0.6, 7.0)
    b, _, h, w = d.shape
    want, want_grad = 0.0, np.zeros(d.shape)
    for n in range(b):
        for y in range(h):
            for x in range(w):
                for dy, dx in ((0, 1), (1, 0)):  # x then y
                    y1, x1 = min(y + dy, h - 1), min(x + dx, w - 1)
                    e = (d.data[n, 0, y1, x1] - d.data[n, 0, y, x]) - (gt[n, 0, y1, x1] - gt[n, 0, y, x])
                    want += math.log(abs(e) + 0.5) / d.data.size
                    u = np.sign(e) / (abs(e) + 0.5) / d.data.size
                    want_grad[n, 0, y1, x1] += u
                    want_grad[n, 0, y, x] -= u
    tape = gc.Tape()
    loss = loss_grad(tape, d, gt)
    assert loss.item() == pytest.approx(want, rel=1e-13)
    gc.backward(loss)
    np.testing.assert_allclose(d.grad, want_grad, rtol=1e-12, atol=1e-15)
    d.grad = None
    assert check_gradients(lambda t: loss_grad(t, d, gt), [d], rng.spawn("fd"),
                           max_entries=36) < 1e-4


def test_loss_log_is_a_mean_over_pixels():
    d = gc.Tensor(np.array([[[[1.0, 2.0], [3.0, 5.0]]]]))
    gt = np.array([[[[1.0, 1.0], [1.0, 1.0]]]])
    expect = (math.log(0.5) + math.log(1.5) + math.log(2.5) + math.log(4.5)) / 4
    assert loss_log(None, d, gt).item() == pytest.approx(expect, rel=1e-14)
