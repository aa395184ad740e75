"""total_loss: the terms it reports are the terms it sums."""

import numpy as np
import pytest

from aced import gradcore as gc
from aced.losses import LossWeights, loss_grad, loss_log, total_loss
from aced.ordhead import ordinal_loss, pair_softmax
from aced.sid import encode_rank
from conftest import RecordingTape

K = 5


def _inputs():
    rng = gc.Rng(gc.derive_seed(0, "total_loss"))
    z = gc.Tensor(rng.fill_uniform((2, 2 * (K - 1), 4, 4), -2, 2), requires_grad=True)
    refined = gc.Tensor(rng.fill_uniform((2, 1, 4, 4), 0.6, 7.0), requires_grad=True)
    gt = rng.fill_uniform((2, 1, 4, 4), 0.6, 7.0)
    labels = np.array([rng.randint(0, K - 1) for _ in range(32)]).reshape(2, 1, 4, 4)
    mask = (rng.fill_uniform((2, 1, 4, 4)) > 0.2).astype(np.float64)
    return z, encode_rank(labels, K), refined, gt, mask


def _alone(probs, target, refined, gt, mask):
    return {
        "loss_ord": ordinal_loss(None, probs, target, mask).item(),
        "loss_log": loss_log(None, refined, gt, mask).item(),
        "loss_grad": loss_grad(None, refined, gt, mask).item(),
    }


def test_parts_are_the_summed_terms():
    z, target, refined, gt, mask = _inputs()
    weights = LossWeights(0.7, 1.3, 2.1)
    tape = RecordingTape()
    probs = pair_softmax(tape, z)
    loss, parts = total_loss(tape, probs, target, refined, gt, mask, weights)
    alone = _alone(probs, target, refined, gt, mask)
    assert parts == alone
    assert loss.item() == ((weights.w_ord * alone["loss_ord"] + weights.w_log * alone["loss_log"])
                           + weights.w_grad * alone["loss_grad"])
    assert tape.names.count("scale") == 3 and tape.names.count("add") == 2


@pytest.mark.parametrize("zeroed,op", [("w_ord", "ordinal_loss"), ("w_log", "loss_log"),
                                       ("w_grad", "loss_grad")])
def test_zero_weight_term_is_reported_off_the_tape(zeroed, op):
    z, target, refined, gt, mask = _inputs()
    weights = LossWeights(**{zeroed: 0.0})
    tape = RecordingTape()
    probs = pair_softmax(tape, z)
    loss, parts = total_loss(tape, probs, target, refined, gt, mask, weights)
    alone = _alone(probs, target, refined, gt, mask)
    assert parts == alone
    assert op not in tape.names
    assert tape.names.count("scale") == 2
    kept = [key for key in ("loss_ord", "loss_log", "loss_grad") if key != "loss_" + zeroed[2:]]
    assert loss.item() == alone[kept[0]] + alone[kept[1]]
    gc.backward(loss)
