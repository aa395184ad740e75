"""The gradient checker covers exactly the ops the model records."""

import numpy as np
import pytest

from aced import gradcheck, network, sid
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
    params = network.init_params(net, gc.Rng(0))
    rng = gc.Rng(1)
    image = gc.Tensor(rng.fill_uniform((2, network.IMAGE_CHANNELS, net.height, net.width)))
    depth = rng.fill_uniform((2, 1, net.height, net.width), sid.DEPTH_RANGE.alpha,
                             sid.DEPTH_RANGE.beta)
    target = encode_rank(depth_to_label(depth, cfg.k), cfg.k)
    tape = RecordingTape()
    out = network.forward(tape, image, params)
    total_loss(tape, out.logits, target, out.refined, depth, cfg.w_log, cfg.w_grad)
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


@pytest.mark.parametrize("op", sorted(_model_ops()))
def test_a_corrupted_model_op_fails_a_primitive_check(op, monkeypatch):
    monkeypatch.setattr(gradcheck, "_COMPONENTS",
                        [c for c in gradcheck._COMPONENTS if c[2] == gradcheck.PRIMITIVE_TOL])
    results = gradcheck.run_full_suite(seed=0, corrupt_op=op)
    assert any(not r.passed for r in results)


def _relu_check(x_value, monkeypatch):
    """(max error, entries tried, entries compared) of a check_gradients run
    on relu over 64 entries, one of which (with the largest gradient, so it
    is always picked) sits at x_value."""
    x = gc.Tensor(gc.Rng(5).fill_uniform((1, 1, 8, 8), 0.1, 1.0), requires_grad=True)
    x.data[0, 0, 3, 3] = x_value
    weights = np.ones(x.shape)
    weights[0, 0, 3, 3] = 10.0
    calls = {"rel": 0, "eval": 0}
    real = gradcheck.relative_error

    def counting_relative_error(a, b):
        calls["rel"] += 1
        return real(a, b)

    def build(tape):
        calls["eval"] += tape is None
        return gradcheck.project(tape, gc.relu(tape, x), weights)

    monkeypatch.setattr(gradcheck, "relative_error", counting_relative_error)
    err = gradcheck.check_gradients(build, [x], gc.Rng(7), max_entries=4)
    # Every tried entry costs two evaluations and one kink test; a compared
    # entry costs one more relative_error call.
    tried = calls["eval"] // 2
    return err, tried, calls["rel"] - tried


def test_an_entry_straddling_a_kink_is_replaced_by_another(monkeypatch):
    # At 3e-6, within FD_STEP of relu's kink, the central difference is 0.65
    # against an analytic slope of 1.
    err, tried, compared = _relu_check(3e-6, monkeypatch)
    assert err < 1e-9
    assert tried == compared + 1
    clear_err, clear_tried, clear_compared = _relu_check(0.5, monkeypatch)
    assert clear_err < 1e-9
    assert clear_tried == clear_compared == compared


def test_a_kink_does_not_hide_a_broken_rule():
    x = gc.Tensor([[[[0.5, 3e-6, -0.4, 0.2]]]], requires_grad=True)
    weights = np.ones(x.shape)
    def build(tape):
        return gradcheck.project(tape, gc.relu(tape, x), weights)
    assert gradcheck.check_gradients(build, [x], gc.Rng(0)) < 1e-9
    x.grad = None
    err = gradcheck.check_gradients(build, [x], gc.Rng(0), tape=gradcheck.fault_tape("relu"))
    assert err == pytest.approx(1 / 3)


def test_fault_tape_counts_the_nodes_it_corrupts():
    x = gc.Tensor([[[[0.5, -0.4]]]], requires_grad=True)
    tape = gradcheck.fault_tape("relu")
    loss = gradcheck.project(tape, gc.relu(tape, gc.relu(tape, x)), np.ones(x.shape))
    assert tape.corrupted == 2
    gc.backward(loss)
    np.testing.assert_array_equal(x.grad, [[[[0.5 * 1.5 * 1.5, 0.0]]]])


def test_corrupting_an_op_no_check_records_is_an_error():
    with pytest.raises(ValueError, match="no check records an op named 'conv2dd'"):
        gradcheck.run_full_suite(seed=0, corrupt_op="conv2dd")


@pytest.mark.parametrize("seed", [3, 21])
def test_suite_passes_at_seeds_whose_stencils_straddle_kinks(seed):
    assert all(r.passed for r in gradcheck.run_full_suite(seed=seed))
