"""The gradient checker covers exactly the ops the model records."""

import numpy as np
import pytest

from aced import gradcheck, network
from aced import gradcore as gc
from aced.losses import total_loss
from aced.sid import depth_to_label, encode_rank
from conftest import RecordingTape, tiny_config

PROBE_OP = "project"


def test_project_is_the_weighted_mean_with_constant_weights():
    x = gc.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=True)
    w = np.array([[[[1.0, 0.0], [2.0, -1.0]]]])
    tape = gc.Tape()
    loss = gradcheck.project(tape, x, w)
    assert loss.item() == 0.75
    gc.backward(loss)
    np.testing.assert_array_equal(x.grad, w / 4)
    with pytest.raises(gc.ShapeMismatchError, match="project"):
        gradcheck.project(None, x, np.ones((1, 1, 2, 1)))


def _model_ops() -> set[str]:
    """Op names of one training step's forward and loss at the test config."""
    cfg = tiny_config()
    net = cfg.network_config()
    th = cfg.thresholds()
    params = network.init_params(net, gc.Rng(0))
    rng = gc.Rng(1)
    image = gc.Tensor(rng.fill_uniform((2, net.input_channels, net.height, net.width)))
    depth = rng.fill_uniform((2, 1, net.height, net.width), cfg.alpha, cfg.beta)
    mask = np.ones_like(depth)
    target = encode_rank(depth_to_label(depth, th), cfg.k)
    tape = RecordingTape()
    out = network.forward(tape, image, params, net, th)
    total_loss(tape, out.probs, target, out.refined, depth, mask, cfg.loss_weights())
    return set(tape.names)


def _suite_ops(monkeypatch):
    """(result, op names its graph records) for each component of one suite run."""
    recorded = []
    real = gradcheck.check_gradients

    def spy(build, wrt, rng, **kwargs):
        tape = RecordingTape()
        build(tape)
        recorded.append(set(tape.names))
        return real(build, wrt, rng, **kwargs)

    monkeypatch.setattr(gradcheck, "check_gradients", spy)
    results = gradcheck.run_full_suite(seed=0)
    assert len(results) == len(recorded)
    return list(zip(results, recorded))


def test_every_model_op_has_a_primitive_check_and_no_other_op_is_checked(monkeypatch):
    model_ops = _model_ops()
    suite = _suite_ops(monkeypatch)
    assert all(result.passed for result, _ in suite)
    primitive = set().union(*(ops for result, ops in suite
                              if result.tolerance == gradcheck.PRIMITIVE_TOL))
    assert model_ops - primitive == set()
    assert set().union(*(ops for _, ops in suite)) - model_ops == {PROBE_OP}
