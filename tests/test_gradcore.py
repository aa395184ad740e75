"""Tensor/tape primitives: forward values, backward rules against finite
differences, optimizer behaviour, RNG determinism, checkpoint format."""

import gc as pygc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from aced import gradcore as gc
from aced.gradcheck import PRIMITIVE_TOL, check_gradients, project, run_full_suite
from aced.ordhead import pair_softmax


def t4(data, requires_grad=False):
    return gc.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def sum_all(tape, x, weights=None):
    """sum(x * weights), weights all ones by default, through the checker's probe."""
    w = np.ones(x.shape) if weights is None else weights
    return gc.scale(tape, project(tape, x, w), x.data.size)


class TestTensor:
    def test_rejects_non_rank4(self):
        with pytest.raises(gc.ShapeMismatchError):
            gc.Tensor(np.zeros((3, 3)))

    def test_item_requires_scalar(self):
        with pytest.raises(gc.ShapeMismatchError):
            t4(np.zeros((1, 2, 1, 1))).item()
        assert gc.scalar(2.5).item() == 2.5

    def test_detached_copies_and_drops_history(self):
        x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = gc.Tape()
        y = gc.relu(tape, x)
        d = y.detached()
        assert not d.needs_grad and d.tape is None
        d.data[0, 0, 0, 0] = 99.0
        assert y.data[0, 0, 0, 0] == 1.0


class TestConv2d:
    def test_all_ones_3x3_center_is_9(self):
        x = t4(np.ones((1, 1, 3, 3)))
        w = t4(np.ones((1, 1, 3, 3)))
        b = t4(np.zeros((1, 1, 1, 1)))
        out = gc.conv2d(None, x, w, b, stride=1, padding=1)
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 1, 1] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0  # corner sees a 2x2 window

    def test_identity_1x1_kernel(self):
        rng = gc.Rng(5)
        x = t4(rng.fill_uniform((2, 1, 4, 4)))
        w = t4(np.ones((1, 1, 1, 1)))
        b = t4(np.zeros((1, 1, 1, 1)))
        out = gc.conv2d(None, x, w, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_channel_mismatch_names_dimensions(self):
        x = t4(np.zeros((1, 3, 4, 4)))
        w = t4(np.zeros((2, 4, 3, 3)))
        b = t4(np.zeros((1, 2, 1, 1)))
        with pytest.raises(gc.ShapeMismatchError, match="3 channels.*expects 4"):
            gc.conv2d(None, x, w, b)

    def test_bad_stride_and_bias_shape(self):
        x = t4(np.zeros((1, 1, 4, 4)))
        w = t4(np.zeros((1, 1, 3, 3)))
        with pytest.raises(gc.ShapeMismatchError):
            gc.conv2d(None, x, w, t4(np.zeros((1, 2, 1, 1))))
        with pytest.raises(gc.ShapeMismatchError):
            gc.conv2d(None, x, w, t4(np.zeros((1, 1, 1, 1))), stride=3)

    def test_gradients_match_finite_differences(self):
        # 2x3x8x8 input against a 4x3x3x3 weight, checked per tensor.
        rng = gc.Rng(11)
        x = t4(rng.fill_uniform((2, 3, 8, 8), -1, 1), requires_grad=True)
        w = t4(rng.fill_uniform((4, 3, 3, 3), -0.5, 0.5), requires_grad=True)
        b = t4(rng.fill_uniform((1, 4, 1, 1), -0.5, 0.5), requires_grad=True)
        probe = rng.fill_uniform((2, 4, 8, 8))
        def build(tape):
            out = gc.conv2d(tape, x, w, b, stride=1, padding=1)
            return project(tape, out, probe)
        err = check_gradients(build, [x, w, b], rng.spawn("s"))
        assert err < 1e-4


def naive_conv2d(x, w, b, stride, padding):
    """Loop-by-loop cross-correlation and its gradients for an upstream
    gradient g; returns (forward, backward) where backward(g) -> (dx, dw, db)."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    y = np.zeros((n, oc, oh, ow))
    for bi in range(n):
        for o in range(oc):
            for r in range(oh):
                for q in range(ow):
                    acc = b[0, o, 0, 0]
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[bi, ci, r * stride + i, q * stride + j] * w[o, ci, i, j]
                    y[bi, o, r, q] = acc

    def backward(g):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w)
        db = np.zeros_like(b)
        for bi in range(n):
            for o in range(oc):
                for r in range(oh):
                    for q in range(ow):
                        db[0, o, 0, 0] += g[bi, o, r, q]
                        for ci in range(c):
                            for i in range(kh):
                                for j in range(kw):
                                    hh, ww = r * stride + i, q * stride + j
                                    dxp[bi, ci, hh, ww] += g[bi, o, r, q] * w[o, ci, i, j]
                                    dw[o, ci, i, j] += g[bi, o, r, q] * xp[bi, ci, hh, ww]
        dx = dxp[:, :, padding:padding + h, padding:padding + wd]
        return dx, dw, db

    return y, backward


class TestConv2dReference:
    """conv2d against naive nested loops, forward and all three gradients."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("oc", [1, 3])
    @pytest.mark.parametrize("hw", [(7, 5), (8, 6)])
    def test_matches_nested_loops(self, stride, padding, k, oc, hw):
        rng = gc.Rng(gc.derive_seed(stride, padding, k, oc, *hw))
        x = t4(rng.fill_uniform((2, 2, *hw), -1, 1), requires_grad=True)
        w = t4(rng.fill_uniform((oc, 2, k, k), -1, 1), requires_grad=True)
        b = t4(rng.fill_uniform((1, oc, 1, 1), -1, 1), requires_grad=True)
        tape = gc.Tape()
        out = gc.conv2d(tape, x, w, b, stride=stride, padding=padding)
        want, naive_backward = naive_conv2d(x.data, w.data, b.data, stride, padding)
        assert out.shape == want.shape
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

        g = rng.fill_uniform(out.shape, -1, 1)
        gc.backward(sum_all(tape, out, g))
        dx, dw, db = naive_backward(g)
        np.testing.assert_allclose(x.grad, dx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, db, rtol=0, atol=1e-12)

    def test_stride_two_drops_last_row(self):
        # 8 rows, k=3, no padding, stride 2: windows start at rows 0, 2, 4;
        # row 7 is read by none, so its gradient is exactly zero.
        x = t4(np.ones((1, 1, 8, 5)), requires_grad=True)
        w = t4(np.ones((1, 1, 3, 3)), requires_grad=True)
        b = t4(np.zeros((1, 1, 1, 1)), requires_grad=True)
        tape = gc.Tape()
        out = gc.conv2d(tape, x, w, b, stride=2, padding=0)
        assert out.shape == (1, 1, 3, 2)
        gc.backward(sum_all(tape, out))
        np.testing.assert_array_equal(x.grad[0, 0, 7], np.zeros(5))
        assert x.grad[0, 0, 6].sum() > 0


# Runs every conv of the default-config network (inputs drawn per conv,
# weights from the initialised store) forward and backward, and prints one
# sha256 per conv over the output and the three gradients.
_CONV_HASH_SCRIPT = """
import hashlib
import numpy as np
from aced import cli, gradcore as gc, network
from aced.gradcheck import project

cfg = cli.load_config(seed=0)
net = cfg.network_config()
params = network.init_params(net, gc.Rng(0))
names = {id(t): n[:-2] for n, t in params.items()}
calls = []
real = network.conv2d

def spy(tape, x, w, b, stride=1, padding=0):
    calls.append((names[id(w)], x.shape, w, b, stride, padding))
    return real(tape, x, w, b, stride, padding)

network.conv2d = spy
image = gc.Tensor(gc.Rng(1).fill_uniform((cfg.batch_size, net.input_channels, net.height, net.width)))
network.forward(None, image, params, net, cfg.thresholds())
for name, shape, w, b, stride, padding in calls:
    rng = gc.Rng(gc.derive_seed(2, name))
    x = gc.Tensor(rng.fill_uniform(shape, -1, 1), requires_grad=True)
    tape = gc.Tape()
    out = real(tape, x, w, b, stride, padding)
    probe = rng.fill_uniform(out.shape, -1, 1)
    gc.backward(project(tape, out, probe))
    h = hashlib.sha256()
    for a in (out.data, x.grad, w.grad, b.grad):
        h.update(np.ascontiguousarray(a).tobytes())
    print(name, h.hexdigest())
"""


def _conv_hashes(threads: int) -> str:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _CONV_HASH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_conv_results_do_not_depend_on_blas_threads():
    one, two = _conv_hashes(1), _conv_hashes(2)
    assert len(one.splitlines()) == 23  # every conv of the network
    assert one == two


class TestUpsample:
    def test_single_pixel_replication(self):
        out = gc.upsample_nearest(None, gc.scalar(5.0), 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 5.0))

    def test_factor_one_is_identity(self):
        x = t4(gc.Rng(0).fill_uniform((1, 2, 3, 3)))
        np.testing.assert_array_equal(gc.upsample_nearest(None, x, 1).data, x.data)

    def test_sum_gradient_is_factor_squared(self):
        x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = gc.Tape()
        loss = sum_all(tape, gc.upsample_nearest(tape, x, 3))
        gc.backward(loss)
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 9.0))


class TestElementwise:
    def test_relu_values(self):
        out = gc.relu(None, t4([[[[-1.0, 2.0]]]]))
        np.testing.assert_array_equal(out.data, [[[[0.0, 2.0]]]])

    def test_relu_subgradient_zero_at_zero(self):
        x = t4([[[[0.0]]]], requires_grad=True)
        tape = gc.Tape()
        gc.backward(sum_all(tape, gc.relu(tape, x)))
        assert x.grad[0, 0, 0, 0] == 0.0

    def test_binary_ops_require_matching_shapes(self):
        a, b = t4(np.zeros((1, 1, 2, 2))), t4(np.zeros((1, 2, 2, 2)))
        with pytest.raises(gc.ShapeMismatchError):
            gc.add(None, a, b)


class TestConcat:
    def test_two_inputs_stack_channels(self):
        a = t4(np.zeros((1, 2, 4, 4)))
        b = t4(np.ones((1, 2, 4, 4)))
        out = gc.concat_channels(None, [a, b])
        assert out.shape == (1, 4, 4, 4)
        assert out.data[0, 2:].min() == 1.0 and out.data[0, :2].max() == 0.0

    def test_single_input_is_identity(self):
        a = t4(gc.Rng(2).fill_uniform((2, 3, 2, 2)))
        np.testing.assert_array_equal(gc.concat_channels(None, [a]).data, a.data)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(gc.ShapeMismatchError, match="input 1"):
            gc.concat_channels(None, [t4(np.zeros((1, 1, 4, 4))), t4(np.zeros((1, 1, 2, 4)))])

    def test_gradient_routes_to_owning_input(self):
        rng = gc.Rng(3)
        a = t4(rng.fill_uniform((1, 2, 3, 3)), requires_grad=True)
        b = t4(rng.fill_uniform((1, 3, 3, 3)), requires_grad=True)
        probe = np.zeros((1, 5, 3, 3))
        probe[0, 3] = 1.0  # selects channel 1 of input b only
        tape = gc.Tape()
        loss = sum_all(tape, gc.concat_channels(tape, [a, b]), probe)
        gc.backward(loss)
        assert np.all(a.grad == 0.0)
        assert np.all(b.grad[0, 1] == 1.0)
        assert np.all(b.grad[0, [0, 2]] == 0.0)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t4(gc.Rng(1).fill_uniform((2, 1, 3, 3)), requires_grad=True)
        tape = gc.Tape()
        gc.backward(sum_all(tape, x))
        np.testing.assert_allclose(x.grad, np.ones_like(x.data))

    def test_fanout_accumulates(self):
        x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = gc.Tape()
        gc.backward(sum_all(tape, gc.add(tape, x, x)))
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 2.0))

    def test_non_scalar_loss_rejected(self):
        x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = gc.Tape()
        y = gc.relu(tape, x)
        with pytest.raises(gc.TapeError, match="scalar"):
            gc.backward(y)

    def test_detached_loss_rejected(self):
        with pytest.raises(gc.TapeError, match="detached"):
            gc.backward(gc.scalar(1.0))

    def test_repeated_backward_rejected(self):
        x = t4(np.ones((1, 1, 1, 1)), requires_grad=True)
        tape = gc.Tape()
        loss = sum_all(tape, x)
        gc.backward(loss)
        with pytest.raises(gc.TapeError, match="reset"):
            gc.backward(loss)
        tape.reset()
        assert len(tape) == 0

    def test_backward_releases_the_graph(self):
        x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = gc.Tape()
        loss = sum_all(tape, gc.relu(tape, x))
        assert len(tape) > 0
        gc.backward(loss)
        assert len(tape) == 0
        with pytest.raises(gc.TapeError, match="reset"):
            gc.backward(loss)

    def test_step_graph_dies_without_the_cycle_collector(self):
        # Every recorded output points to its tape; once backward has run,
        # the tape must no longer point back, so dropping the step's
        # references frees it by reference counting alone.
        from aced import cli, network

        cfg = cli.load_config(sets=["image_h=16", "image_w=16", "k=4", "base_width=2",
                                    "fusion_width=4", "batch_size=2"], seed=0)
        net = cfg.network_config()
        params = network.init_params(net, gc.Rng(0))
        image = gc.Tensor(gc.Rng(1).fill_uniform((2, net.input_channels, net.height, net.width)))
        was_enabled = pygc.isenabled()
        pygc.disable()
        try:
            tape = gc.Tape()
            out = network.forward(tape, image, params, net, cfg.thresholds())
            loss = sum_all(tape, out.refined)
            gc.backward(loss)
            dead_tape, dead_loss = weakref.ref(tape), weakref.ref(loss.data)
            del tape, out, loss
            assert dead_tape() is None
            assert dead_loss() is None
        finally:
            if was_enabled:
                pygc.enable()

    def test_mixing_tapes_rejected(self):
        x = t4(np.ones((1, 1, 1, 1)), requires_grad=True)
        y = gc.relu(gc.Tape(), x)
        with pytest.raises(gc.TapeError, match="tapes"):
            gc.relu(gc.Tape(), y)


@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients_ten_seeds(seed):
    """Composite of a stride-2 conv and the paired softmax stays within the
    primitive tolerance on fresh random inputs."""
    rng = gc.Rng(gc.derive_seed(seed, "tenseed"))
    x = t4(rng.fill_uniform((1, 2, 6, 6), -1, 1), requires_grad=True)
    w = t4(rng.fill_uniform((4, 2, 3, 3), -0.4, 0.4), requires_grad=True)
    b = t4(rng.fill_uniform((1, 4, 1, 1), -0.1, 0.1), requires_grad=True)
    probe = rng.fill_uniform((1, 2, 3, 3))
    def build(tape):
        y = gc.conv2d(tape, x, w, b, stride=2, padding=1)
        return project(tape, pair_softmax(tape, y), probe)
    err = check_gradients(build, [x, w, b], rng.spawn("s"), max_entries=8)
    assert err < PRIMITIVE_TOL


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        params = gc.ParamStore()
        p = params.add("p", np.full((1, 1, 1, 1), 1.5))
        params.zero_grads()
        gc.adam_step(params)
        assert p.data[0, 0, 0, 0] == 1.5

    def test_constant_gradient_moves_against_sign(self):
        params = gc.ParamStore()
        p = params.add("p", np.array([[[[1.0, 1.0]]]]))
        for _ in range(40):
            p.grad = np.array([[[[1.0, -1.0]]]])
            gc.adam_step(params, lr=0.01)
        assert p.data[0, 0, 0, 0] < 1.0 < p.data[0, 0, 0, 1]

    def test_single_step_matches_hand_recurrence(self):
        lr, b1, b2, eps = 2e-4, 0.9, 0.999, 1e-8
        params = gc.ParamStore()
        p = params.add("p", np.full((1, 1, 1, 1), 1.0))
        p.grad = np.full((1, 1, 1, 1), 1.0)
        gc.adam_step(params, lr, b1, b2, eps)
        # independent recurrence: m=0.1 -> mhat=1; v=0.001 -> vhat=1
        m = (1 - b1) * 1.0
        v = (1 - b2) * 1.0
        expect = 1.0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        np.testing.assert_allclose(p.data[0, 0, 0, 0], expect, rtol=0, atol=0)

    def test_missing_gradient_names_parameter(self):
        params = gc.ParamStore()
        params.add("enc.w", np.zeros((1, 1, 1, 1)))
        with pytest.raises(gc.MissingGradientError, match="enc.w"):
            gc.adam_step(params)


class TestPolyLr:
    def test_iter_zero_gives_base(self):
        assert gc.poly_lr(0.02, 0, 100, 0.9) == 0.02

    def test_iter_max_gives_zero(self):
        assert gc.poly_lr(0.02, 100, 100, 0.9) == 0.0

    def test_midpoint(self):
        np.testing.assert_allclose(gc.poly_lr(1.0, 50, 100, 0.9), 0.5**0.9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gc.poly_lr(1.0, 101, 100, 0.9)


class TestRng:
    def test_identical_seed_identical_sequence(self):
        a, b = gc.Rng(123), gc.Rng(123)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_fill_matches_sequential_draws(self):
        a, b = gc.Rng(9), gc.Rng(9)
        block = a.fill_uniform((3, 4), 2.0, 5.0)
        seq = np.array([b.uniform(2.0, 5.0) for _ in range(12)]).reshape(3, 4)
        np.testing.assert_array_equal(block, seq)
        # streams stay aligned afterwards
        assert a.next_u64() == b.next_u64()

    def test_spawn_is_deterministic_and_disjoint(self):
        a = gc.Rng(7).spawn("x")
        b = gc.Rng(7).spawn("x")
        c = gc.Rng(7).spawn("y")
        assert a.next_u64() == b.next_u64() != c.next_u64()

    def test_randint_bounds(self):
        rng = gc.Rng(0)
        vals = {rng.randint(2, 5) for _ in range(200)}
        assert vals == {2, 3, 4, 5}


class TestCheckpoint:
    def _store(self):
        rng = gc.Rng(42)
        params = gc.ParamStore()
        params.add("a.w", rng.fill_uniform((2, 3, 3, 3), -1, 1))
        params.add("a.b", rng.fill_uniform((1, 2, 1, 1), -1, 1))
        return params

    def test_round_trip_is_exact(self, tmp_path):
        params = self._store()
        path = tmp_path / "ck.bin"
        gc.save_checkpoint(params, path)
        other = self._store()
        other["a.w"].data[...] = 0.0
        gc.load_checkpoint(other, path)
        np.testing.assert_array_equal(other["a.w"].data, params["a.w"].data)

    def test_format_layout(self, tmp_path):
        params = gc.ParamStore()
        params.add("p", np.full((1, 1, 1, 1), 1.0))
        path = tmp_path / "ck.bin"
        gc.save_checkpoint(params, path)
        raw = path.read_bytes()
        assert raw == b"ACED1\np\n1 1 1 1\n" + np.float64(1.0).tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"NOPE\n")
        with pytest.raises(gc.CheckpointError, match="magic"):
            gc.load_checkpoint(self._store(), path)

    def test_truncation_rejected(self, tmp_path):
        params = self._store()
        path = tmp_path / "ck.bin"
        gc.save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(gc.CheckpointError, match="truncated"):
            gc.load_checkpoint(self._store(), path)

    def test_name_mismatch_rejected(self, tmp_path):
        params = self._store()
        path = tmp_path / "ck.bin"
        gc.save_checkpoint(params, path)
        other = gc.ParamStore()
        other.add("z.w", np.zeros((2, 3, 3, 3)))
        other.add("z.b", np.zeros((1, 2, 1, 1)))
        with pytest.raises(gc.CheckpointError, match="order mismatch"):
            gc.load_checkpoint(other, path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = self._store()
        path = tmp_path / "ck.bin"
        gc.save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(gc.CheckpointError, match="trailing"):
            gc.load_checkpoint(self._store(), path)


def test_training_steps_are_bit_deterministic():
    """Same seed, same config, same number of steps: identical parameters."""
    def run():
        rng = gc.Rng(gc.derive_seed(5, "det"))
        params = gc.ParamStore()
        x = params.add("x", rng.fill_uniform((1, 2, 4, 4), -1, 1))
        w = params.add("w", rng.fill_uniform((2, 2, 3, 3), -0.5, 0.5))
        b = params.add("b", rng.fill_uniform((1, 2, 1, 1), -0.5, 0.5))
        probe = rng.fill_uniform((1, 2, 4, 4), -1, 1)
        for _ in range(5):
            tape = gc.Tape()
            y = gc.conv2d(tape, x, w, b, 1, 1)
            loss = project(tape, y, probe)
            params.zero_grads()
            gc.backward(loss)
            gc.adam_step(params, lr=1e-2)
        return [t.data.copy() for _, t in params.items()]

    for a, b in zip(run(), run()):
        np.testing.assert_array_equal(a, b)


def test_fault_injection_breaks_gradcheck():
    results = run_full_suite(seed=0, corrupt_op="conv2d")
    failed = {r.name for r in results if not r.passed}
    assert "conv2d_stride1" in failed and "composed_8x8" in failed
