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
from hypothesis import given, settings
from hypothesis import strategies as st

from aced import cli, network
from aced import gradcore as gc
from aced.gradcheck import PRIMITIVE_TOL, check_gradients, project, run_full_suite
from aced.ordhead import pair_softmax
from conftest import TINY_SETS


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
        assert gc.Tensor(np.full((1, 1, 1, 1), 2.5)).item() == 2.5


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

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("hw", [(7, 5), (8, 6)])
    def test_stride_two_is_the_subsampled_stride_one_grid(self, padding, k, hw):
        rng = gc.Rng(gc.derive_seed(7, padding, k, *hw))
        x = t4(rng.fill_uniform((2, 3, *hw), -1, 1))
        w = t4(rng.fill_uniform((4, 3, k, k), -1, 1))
        b = t4(rng.fill_uniform((1, 4, 1, 1), -1, 1))
        full = gc.conv2d(None, x, w, b, stride=1, padding=padding).data
        half = gc.conv2d(None, x, w, b, stride=2, padding=padding).data
        oh, ow = half.shape[2:]
        np.testing.assert_array_equal(half, full[:, :, 0:2 * oh:2, 0:2 * ow:2])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_matches_nested_loops_on_drawn_shapes(self, data):
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))
        n, c, oc = draw(1, 3), draw(1, 4), draw(1, 4)
        kh, kw, padding = draw(1, 4), draw(1, 4), draw(0, 2)
        stride = data.draw(st.sampled_from([1, 2]))
        # Only legal shapes: the padded input holds at least one window.
        h, w = draw(max(1, kh - 2 * padding), 9), draw(max(1, kw - 2 * padding), 9)
        rng = gc.Rng(gc.derive_seed(draw(0, 2**32), "drawn"))
        x = t4(rng.fill_uniform((n, c, h, w), -1, 1), requires_grad=True)
        wt = t4(rng.fill_uniform((oc, c, kh, kw), -1, 1), requires_grad=True)
        b = t4(rng.fill_uniform((1, oc, 1, 1), -1, 1), requires_grad=True)
        tape = gc.Tape()
        out = gc.conv2d(tape, x, wt, b, stride=stride, padding=padding)
        want, naive_backward = naive_conv2d(x.data, wt.data, b.data, stride, padding)
        assert out.shape == want.shape
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        g = rng.fill_uniform(out.shape, -1, 1)
        gc.backward(sum_all(tape, out, g))
        for got, ref in zip((x.grad, wt.grad, b.grad), naive_backward(g)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_upsample_two_is_the_conv_of_the_upsampled_input(self, data):
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))
        n, c, oc, h, w = draw(1, 3), draw(1, 4), draw(1, 4), draw(1, 9), draw(1, 9)
        rng = gc.Rng(gc.derive_seed(draw(0, 2**32), "drawn-upsample"))
        x = t4(rng.fill_uniform((n, c, h, w), -1, 1), requires_grad=True)
        wt = t4(rng.fill_uniform((oc, c, 3, 3), -1, 1), requires_grad=True)
        b = t4(rng.fill_uniform((1, oc, 1, 1), -1, 1), requires_grad=True)
        tape = gc.Tape()
        out = gc.conv2d(tape, x, wt, b, stride=1, padding=1, upsample=2)
        # Reference 1: the upsample and the stride-1 conv as two tape ops.
        ref = [t4(t.data, requires_grad=True) for t in (x, wt, b)]
        ref_tape = gc.Tape()
        composed = gc.conv2d(ref_tape, gc.upsample_nearest(ref_tape, ref[0], 2), ref[1], ref[2], 1, 1)
        # Reference 2: nested loops on the upsampled input; dx is the block sum.
        up = x.data.repeat(2, axis=2).repeat(2, axis=3)
        want, naive_backward = naive_conv2d(up, wt.data, b.data, 1, 1)
        assert out.shape == composed.shape == want.shape == (n, oc, 2 * h, 2 * w)
        np.testing.assert_allclose(out.data, composed.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        g = rng.fill_uniform(out.shape, -1, 1)
        gc.backward(sum_all(tape, out, g))
        gc.backward(sum_all(ref_tape, composed, g))
        dx_up, dw, db = naive_backward(g)
        dx = dx_up.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        for got, composed_grad, loop_grad in zip((x.grad, wt.grad, b.grad),
                                                 (t.grad for t in ref), (dx, dw, db)):
            np.testing.assert_allclose(got, composed_grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got, loop_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("upsample, k, stride, padding", [
        (3, 3, 1, 1), (2, 3, 2, 1), (2, 1, 1, 1), (2, 3, 1, 0)],
        ids=["upsample3", "stride2", "kernel1x1", "padding0"])
    def test_upsample_rejects_other_shapes(self, upsample, k, stride, padding):
        x = t4(np.zeros((1, 2, 4, 4)))
        w = t4(np.zeros((3, 2, k, k)))
        b = t4(np.zeros((1, 3, 1, 1)))
        with pytest.raises(gc.ShapeMismatchError, match="upsample"):
            gc.conv2d(None, x, w, b, stride=stride, padding=padding, upsample=upsample)

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


def one_gap(padding, k):
    """conv2d's gap for a k x k kernel: the zero columns after each image row
    and the zero rows after each image."""
    return max(padding, 2 * padding - k + 1)


def per_tap_conv2d(x, w, b, g, stride, padding, upsample, gap):
    """conv2d's output, dx and dW for an upstream gradient g, one GEMM per
    kernel tap on a flat buffer laid out as conv2d's, with `gap` zero columns
    after each image row and `gap` zero rows after each image: y = sum_t W_t
    @ view_t in tap order, dW_t = g @ view_t.T and dx += W_t.T @ g at each
    view. With conv2d's own gap, one_gap(p, k), the GEMM shapes are conv2d's,
    so the bits are too; gap 2p pads every image on its own. upsample=2 runs
    the four 2x2 phase convs of the folded kernel."""
    bsz, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    p, s = padding, stride
    gh, gw = (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1
    hq, wq = h + gap, wd + gap
    grid = bsz * hq * wq
    n = -(-grid // 16) * 16
    lead = p * wq + p  # image 0's first pixel
    xf = np.zeros((c, n + max((kh - 1) * wq + kw - 1, lead)))
    xf[:, lead:lead + grid].reshape(c, bsz, hq, wq)[:, :, :h, :wd] = x.transpose(1, 0, 2, 3)
    if upsample == 1:
        phases = [(..., [(w[:, :, i, j], i * wq + j) for i in range(kh) for j in range(kw)])]
    else:
        wt = (gc._UP2_TAPS @ w.reshape(oc * c, 9).T).reshape(2, 2, 2, 2, oc, c)
        phases = [(np.s_[:, :, a::2, e::2],
                   [(wt[a, e, d, f], (a + d) * wq + e + f) for d in (0, 1) for f in (0, 1)])
                  for a in (0, 1) for e in (0, 1)]
    out = np.empty(g.shape)
    dxf, dws = np.zeros_like(xf), []
    for pix, taps in phases:
        (w0, off0), *rest = taps
        y = w0 @ xf[:, off0:off0 + n]
        for wk, off in rest:
            y = y + wk @ xf[:, off:off + n]
        out[pix] = y[:, :grid].reshape(oc, bsz, hq, wq)[:, :, :s * gh:s, :s * gw:s].transpose(1, 0, 2, 3) + b
        gf = np.zeros((oc, n))
        gf[:, :grid].reshape(oc, bsz, hq, wq)[:, :, :s * gh:s, :s * gw:s] = g[pix].transpose(1, 0, 2, 3)
        for wk, off in taps:
            dws.append(gf @ xf[:, off:off + n].T)
            dxf[:, off:off + n] += wk.T @ gf
    if upsample == 1:
        dw = np.array(dws).reshape(kh, kw, oc, c).transpose(2, 3, 0, 1)
    else:
        dw = (np.array(dws).reshape(16, oc * c).T @ gc._UP2_TAPS).reshape(oc, c, 3, 3)
    dx = dxf[:, lead:lead + grid].reshape(c, bsz, hq, wq)[:, :, :h, :wd].transpose(1, 0, 2, 3)
    return out, dx, dw


def network_conv_calls(batch, monkeypatch):
    """(x, w, b, stride, padding, upsample) of every conv of the default
    network, in call order, at its training batch (batch None) or at `batch`."""
    cfg = cli.load_config(sets=[], seed=0)
    net = cfg.network_config()
    calls, real = [], network.conv2d

    def spy(tape, x, w, b, stride=1, padding=0, upsample=1):
        calls.append((x.data, w.data, b.data, stride, padding, upsample))
        return real(tape, x, w, b, stride, padding, upsample)

    monkeypatch.setattr(network, "conv2d", spy)
    image = gc.Rng(1).fill_uniform((batch or cfg.batch_size, network.IMAGE_CHANNELS, net.height, net.width))
    network.forward(None, gc.Tensor(image), network.init_params(net, gc.Rng(0)))
    monkeypatch.setattr(network, "conv2d", real)
    return calls


@pytest.mark.parametrize("batch", [None, 1], ids=["train", "eval"])
def test_every_network_conv_matches_its_per_tap_gemms(batch, monkeypatch):
    """The output and dW are bit-equal to one GEMM per tap, and dx within
    1e-12, at every conv of the default network (refine.conv1 with its four
    upsample=2 phases), at the training batch and at eval's batch 1."""
    calls = network_conv_calls(batch, monkeypatch)
    assert len(calls) == 26 and [call[-1] for call in calls].count(2) == 1
    rng = gc.Rng(2)
    for k, (xd, wd, bd, stride, padding, upsample) in enumerate(calls):
        x, w, b = t4(xd, True), t4(wd, True), t4(bd, True)
        tape = gc.Tape()
        out = gc.conv2d(tape, x, w, b, stride, padding, upsample)
        g = rng.fill_uniform(out.shape, -1, 1)
        gc.backward(sum_all(tape, out, g))
        want, dx, dw = per_tap_conv2d(xd, wd, bd, g, stride, padding, upsample,
                                      one_gap(padding, wd.shape[2]))
        where = f"conv {k}: x {xd.shape}, w {wd.shape}, stride {stride}, upsample {upsample}"
        np.testing.assert_array_equal(out.data, want, err_msg=where)
        np.testing.assert_array_equal(w.grad, dw, err_msg=where)
        np.testing.assert_allclose(x.grad, dx, rtol=0, atol=1e-12, err_msg=where)


@pytest.mark.parametrize("batch", [None, 1], ids=["train", "eval"])
def test_the_one_gap_grid_moves_only_dw(batch, monkeypatch):
    """At every network conv, the per-tap GEMMs on conv2d's one-gap grid and
    on the grid that pads each image on its own (2p zeros between
    neighbours) give the same output and dx bits; only dW's GEMMs, whose
    inner dimension is the grid size, move, by at most 1e-14 of its largest
    entry."""
    calls = network_conv_calls(batch, monkeypatch)
    rng = gc.Rng(3)
    for k, (xd, wd, bd, stride, padding, upsample) in enumerate(calls):
        g = rng.fill_uniform((xd.shape[0], wd.shape[0], upsample * xd.shape[2] // stride,
                              upsample * xd.shape[3] // stride), -1, 1)
        one = per_tap_conv2d(xd, wd, bd, g, stride, padding, upsample, one_gap(padding, wd.shape[2]))
        two = per_tap_conv2d(xd, wd, bd, g, stride, padding, upsample, 2 * padding)
        where = f"conv {k}: x {xd.shape}, w {wd.shape}, stride {stride}, upsample {upsample}"
        np.testing.assert_array_equal(one[0], two[0], err_msg=where)
        np.testing.assert_array_equal(one[1], two[1], err_msg=where)
        assert np.abs(one[2] - two[2]).max() <= 1e-14 * np.abs(two[2]).max(), where


# Runs every conv of the network (inputs drawn per conv, weights from the
# initialised store, a slice of fuse_merge.w named fuse_merge[lo:hi]) forward
# and backward, and prints one sha256 per conv over the output and the three
# gradients, with its upsample factor. It does so for the default config at
# its training batch and at batch 1 (as `eval` runs), for the config given by
# the arguments at its training batch, for one 1x1 conv whose grid of
# 46*201 = 9246 columns (not a multiple of 8) is all kept outputs, and for
# one unpadded 3x3 conv, 16 channels in and out, whose dx GEMM is 880 + 78 =
# 958 columns wide: OpenBLAS computes its last 958 mod 8 columns differently
# at different thread counts, so they must stay past the 23*38 = 874 columns
# of the grid, in the part of dx that is dropped. The upsample=2 conv,
# refine.conv1, runs on a grid of 8*18*18 = 2592 columns at the training
# batch and of 324 (rounded up to 336) at batch 1.
_CONV_HASH_SCRIPT = """
import hashlib
import sys
import numpy as np
from aced import cli, gradcore as gc, network
from aced.gradcheck import project

real = network.conv2d
real_slice = network.slice_channels

def conv_calls(sets, batch):
    cfg = cli.load_config(sets=sets, seed=0)
    net = cfg.network_config()
    params = network.init_params(net, gc.Rng(0))
    names = {id(t): n[:-2] for n, t in params.items()}
    calls = []

    def spy(tape, x, w, b, stride=1, padding=0, upsample=1):
        calls.append((names[id(w)], x.shape, w, b, stride, padding, upsample))
        return real(tape, x, w, b, stride, padding, upsample)

    def slice_spy(tape, x, lo, hi):
        out = real_slice(tape, x, lo, hi)
        names[id(out)] = f"{names[id(x)]}[{lo}:{hi}]"
        return out

    network.conv2d, network.slice_channels = spy, slice_spy
    shape = (batch or cfg.batch_size, network.IMAGE_CHANNELS, net.height, net.width)
    network.forward(None, gc.Tensor(gc.Rng(1).fill_uniform(shape)), params)
    network.conv2d, network.slice_channels = real, real_slice
    return calls

def print_hash(label, name, shape, w, b, stride, padding, upsample=1):
    rng = gc.Rng(gc.derive_seed(2, name))
    x = gc.Tensor(rng.fill_uniform(shape, -1, 1), requires_grad=True)
    w, b = (gc.Tensor(t.data, requires_grad=True) for t in (w, b))
    tape = gc.Tape()
    out = real(tape, x, w, b, stride, padding, upsample)
    probe = rng.fill_uniform(out.shape, -1, 1)
    gc.backward(project(tape, out, probe))
    h = hashlib.sha256()
    for a in (out.data, x.grad, w.grad, b.grad):
        h.update(np.ascontiguousarray(a).tobytes())
    print(label, name, f"x{upsample}", h.hexdigest())

for label, sets, batch in (("train", [], None), ("eval", [], 1), ("args", sys.argv[1:], None)):
    for call in conv_calls(sets, batch):
        print_hash(label, *call)
rng = gc.Rng(5)
w = gc.Tensor(rng.fill_uniform((16, 18, 1, 1), -1, 1), requires_grad=True)
b = gc.Tensor(rng.fill_uniform((1, 16, 1, 1), -1, 1), requires_grad=True)
print_hash("odd", "pointwise", (1, 18, 46, 201), w, b, 1, 0)
w = gc.Tensor(rng.fill_uniform((16, 16, 3, 3), -1, 1), requires_grad=True)
print_hash("odd", "3x3", (1, 16, 23, 38), w, b, 1, 0)
"""


def _conv_hashes(threads: int) -> str:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _CONV_HASH_SCRIPT, *TINY_SETS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_conv_results_do_not_depend_on_blas_threads():
    one, two = _conv_hashes(1), _conv_hashes(2)
    lines = one.splitlines()
    assert len(lines) == 3 * 26 + 2  # every conv of the network, per config, and the odd two
    assert [line.split()[:2] for line in lines if line.split()[2] == "x2"] == [
        [label, "refine.conv1"] for label in ("train", "eval", "args")]
    assert one == two


class TestSliceChannels:
    def test_inverts_concat(self):
        rng = gc.Rng(4)
        parts = [t4(rng.fill_uniform((2, c, 3, 2))) for c in (1, 3, 2)]
        whole = gc.concat_channels(None, parts)
        for part, (lo, hi) in zip(parts, ((0, 1), (1, 4), (4, 6))):
            np.testing.assert_array_equal(gc.slice_channels(None, whole, lo, hi).data, part.data)

    def test_gradient_lands_in_the_slice(self):
        x = t4(np.ones((1, 4, 2, 2)), requires_grad=True)
        tape = gc.Tape()
        gc.backward(sum_all(tape, gc.slice_channels(tape, x, 1, 3)))
        np.testing.assert_array_equal(x.grad[0, :, 0, 0], [0.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (2, 2), (3, 1), (0, 5)])
    def test_bad_range_rejected(self, lo, hi):
        with pytest.raises(gc.ShapeMismatchError, match="slice_channels"):
            gc.slice_channels(None, t4(np.zeros((1, 4, 2, 2))), lo, hi)


class TestUpsample:
    def test_single_pixel_replication(self):
        out = gc.upsample_nearest(None, gc.Tensor(np.full((1, 1, 1, 1), 5.0)), 2)
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

    @pytest.mark.parametrize("f", [1, 2, 4, 16])
    def test_gradient_is_the_block_sum(self, f):
        rng = gc.Rng(gc.derive_seed(9, f))
        x = t4(rng.fill_uniform((2, 3, 3, 2), -1, 1), requires_grad=True)
        tape = gc.Tape()
        out = gc.upsample_nearest(tape, x, f)
        g = rng.fill_uniform(out.shape, -1, 1)
        gc.backward(sum_all(tape, out, g))
        want = g.reshape(2, 3, 3, f, 2, f).sum(axis=(3, 5))
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-12)


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
            gc.backward(gc.Tensor(np.full((1, 1, 1, 1), 1.0)))

    def test_repeated_backward_rejected(self):
        x = t4(np.ones((1, 1, 1, 1)), requires_grad=True)
        tape = gc.Tape()
        loss = sum_all(tape, x)
        gc.backward(loss)
        with pytest.raises(gc.TapeError, match="new Tape"):
            gc.backward(loss)
        np.testing.assert_array_equal(x.grad, 1.0)
        gc.backward(sum_all(gc.Tape(), x))  # the next graph, on a new tape
        np.testing.assert_array_equal(x.grad, 2.0)

    def test_backward_releases_the_graph(self):
        x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = gc.Tape()
        loss = sum_all(tape, gc.relu(tape, x))
        assert len(tape._nodes) > 0
        gc.backward(loss)
        assert len(tape._nodes) == 0
        with pytest.raises(gc.TapeError, match="new Tape"):
            gc.backward(loss)

    def test_backward_frees_each_node_once_it_has_run(self):
        # By the time the first node's rule runs, the later node (and with
        # it the output only that node held) must already be released.
        x = t4(np.ones((1, 1, 1, 1)), requires_grad=True)
        tape = gc.Tape()
        y = gc.Tensor(2.0 * x.data)
        seen = []
        def first_bwd(g):
            seen.append(later_output() is None)
            gc._accum(x, 2.0 * g)
        tape.record("first", (x,), y, first_bwd)
        z = gc.scale(tape, y, 3.0)
        later_output = weakref.ref(z.data)
        loss = gc.scale(tape, z, 1.0)
        del z
        gc.backward(loss)
        assert seen == [True]
        np.testing.assert_array_equal(x.grad, 6.0)

    def test_step_graph_dies_without_the_cycle_collector(self):
        # Every recorded output points to its tape; once backward has run,
        # the tape must no longer point back, so dropping the step's
        # references frees it by reference counting alone.
        from aced import cli, network

        cfg = cli.load_config(sets=["image_h=16", "image_w=16", "k=4", "base_width=2",
                                    "fusion_width=4", "batch_size=2"], seed=0)
        net = cfg.network_config()
        params = network.init_params(net, gc.Rng(0))
        image = gc.Tensor(gc.Rng(1).fill_uniform((2, network.IMAGE_CHANNELS, net.height, net.width)))
        was_enabled = pygc.isenabled()
        pygc.disable()
        try:
            tape = gc.Tape()
            out = network.forward(tape, image, params)
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
        params = gc.ParamStore({"p": (1, 1, 1, 1)})
        p = params["p"]
        p.data[...] = 1.5
        params.zero_grads()
        gc.adam_step(params, lr=0.01)
        assert p.data[0, 0, 0, 0] == 1.5

    def test_constant_gradient_moves_against_sign(self):
        params = gc.ParamStore({"p": (1, 1, 1, 2)})
        p = params["p"]
        p.data[...] = 1.0
        for _ in range(40):
            p.grad[...] = np.array([[[[1.0, -1.0]]]])
            gc.adam_step(params, lr=0.01)
        assert p.data[0, 0, 0, 0] < 1.0 < p.data[0, 0, 0, 1]

    def test_single_step_matches_hand_recurrence(self):
        lr, b1, b2, eps = 2e-4, 0.9, 0.999, 1e-8
        params = gc.ParamStore({"p": (1, 1, 1, 1)})
        p = params["p"]
        p.data[...] = 1.0
        p.grad[...] = 1.0
        gc.adam_step(params, lr)
        # independent recurrence: m=0.1 -> mhat=1; v=0.001 -> vhat=1
        m = (1 - b1) * 1.0
        v = (1 - b2) * 1.0
        expect = 1.0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        np.testing.assert_allclose(p.data[0, 0, 0, 0], expect, rtol=0, atol=0)

    def test_flat_update_is_the_per_parameter_update(self):
        """Three steps on a three-tensor store, one of whose gradients the
        caller writes in place of the one backward accumulated, give the
        bits of Adam run one tensor at a time."""
        rng, lr = gc.Rng(11), 3e-3
        shapes = {"a.w": (2, 3, 3, 3), "a.b": (1, 2, 1, 1), "c.w": (1, 2, 1, 1)}
        params = gc.ParamStore(shapes)
        for name, t in params.items():
            t.data[...] = rng.fill_uniform(shapes[name], -1, 1)
        want = {name: t.data.copy() for name, t in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for step in (1, 2, 3):
            params.zero_grads()
            grads = {name: rng.fill_uniform(shape, -1, 1) for name, shape in shapes.items()}
            for name, t in params.items():
                if name == "a.b":
                    t.grad[...] = grads[name]
                else:
                    t.grad += grads[name]
            gc.adam_step(params, lr)
            bc1, bc2 = 1.0 - gc.ADAM_BETA1**step, 1.0 - gc.ADAM_BETA2**step
            for name, g in grads.items():
                m[name] *= gc.ADAM_BETA1
                m[name] += (1.0 - gc.ADAM_BETA1) * g
                v[name] *= gc.ADAM_BETA2
                v[name] += (1.0 - gc.ADAM_BETA2) * (g * g)
                want[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + gc.ADAM_EPS)
        for name, t in params.items():
            np.testing.assert_array_equal(t.data, want[name], err_msg=name)

    def test_missing_gradient_names_parameter(self):
        # Adam reads only the store's gradient vector, so a .grad rebound to
        # another array would be ignored; a None one likewise.
        for grad in (np.ones((1, 1, 1, 1)), None):
            params = gc.ParamStore({"enc.b": (1, 1, 1, 1), "enc.w": (1, 1, 1, 1)})
            params["enc.w"].grad = grad
            with pytest.raises(gc.MissingGradientError, match="'enc.w'"):
                gc.adam_step(params, lr=0.01)
            assert params["enc.w"].data[0, 0, 0, 0] == params["enc.b"].data[0, 0, 0, 0] == 0.0


def test_init_params_tensors_are_views_of_the_two_vectors():
    """Each parameter's .data and .grad are its slice of the store's value
    and gradient vectors, in store order, back to back with no overlap."""
    params = network.init_params(network.NetworkConfig(k_levels=4, height=16, width=16),
                                 gc.Rng(3))
    lo = 0
    for name, t in params.items():
        hi = lo + t.data.size
        for view, flat in ((t.data, params._flat), (t.grad, params._grad)):
            assert view.base is flat, name
            assert view.ctypes.data == flat[lo:hi].ctypes.data, name
            assert view.flags.c_contiguous, name
        lo = hi
    assert lo == params._flat.size == params._grad.size


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
        # 2**63 + 5 and 2**64 - 1 set the state's top bit, which the shared
        # finalizer must mask the same way on the int and the uint64 path.
        for seed in (9, 2**63 + 5, 2**64 - 1):
            a, b = gc.Rng(seed), gc.Rng(seed)
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
        params = gc.ParamStore({"a.w": (2, 3, 3, 3), "a.b": (1, 2, 1, 1)})
        for _, t in params.items():
            t.data[...] = rng.fill_uniform(t.shape, -1, 1)
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
        params = gc.ParamStore({"p": (1, 1, 1, 1)})
        params["p"].data[...] = 1.0
        path = tmp_path / "ck.bin"
        gc.save_checkpoint(params, path)
        raw = path.read_bytes()
        assert raw == b"ACED2\np\n1 1 1 1\n" + np.float64(1.0).tobytes()

    def test_full_resolution_fusion_checkpoint_rejected(self, tmp_path):
        params = self._store()
        path = tmp_path / "ck.bin"
        gc.save_checkpoint(params, path)
        path.write_bytes(b"ACED1\n" + path.read_bytes()[len(gc.CHECKPOINT_MAGIC):])
        with pytest.raises(gc.CheckpointError, match="full-resolution fusion.*retrain"):
            gc.load_checkpoint(self._store(), path)

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

    def test_unterminated_line_names_the_path(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(gc.CHECKPOINT_MAGIC + b"a.w\n2 3")
        with pytest.raises(gc.CheckpointError, match=f"^{path}: unterminated shape line at byte 10$"):
            gc.load_checkpoint(self._store(), path)

    def test_name_mismatch_rejected(self, tmp_path):
        params = self._store()
        path = tmp_path / "ck.bin"
        gc.save_checkpoint(params, path)
        other = gc.ParamStore({"z.w": (2, 3, 3, 3), "z.b": (1, 2, 1, 1)})
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
        params = gc.ParamStore({"x": (1, 2, 4, 4), "w": (2, 2, 3, 3), "b": (1, 2, 1, 1)})
        x, w, b = params["x"], params["w"], params["b"]
        x.data[...] = rng.fill_uniform(x.shape, -1, 1)
        w.data[...] = rng.fill_uniform(w.shape, -0.5, 0.5)
        b.data[...] = rng.fill_uniform(b.shape, -0.5, 0.5)
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
    assert "conv2d_stride1" in failed and "composed_network_16x16" in failed
