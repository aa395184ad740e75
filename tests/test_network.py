"""Network graph layout: the RGB input, where the multiscale fusion blocks and
merge run, the ordinal head at half resolution, and refine's first conv on
the half-resolution maps."""

import numpy as np
import pytest

from aced import gradcore as gc
from aced import network
from aced.ordhead import confidence, expected_label, pair_softmax
from aced.sid import label_to_depth_op
from conftest import tiny_config


def _tiny_model(seed=0):
    cfg = tiny_config()
    net = cfg.network_config()
    params = network.init_params(net, gc.Rng(seed))
    image = gc.Tensor(gc.Rng(seed + 1).fill_uniform((2, network.IMAGE_CHANNELS, net.height, net.width)))
    feats = network.encode(None, image, params)
    return net, params, feats


def _top_down(hs, params):
    """The FPN merge built by hand: each h_i through its column slice of
    fuse_merge.w (bias on the coarsest only), summed from the coarsest scale
    down with a x2 upsample between scales, ending at half resolution."""
    w, bias = params["fuse_merge.w"].data, params["fuse_merge.b"]
    bounds = np.cumsum([0] + [h.shape[1] for h in hs])
    merged = None
    for i in range(len(hs) - 1, -1, -1):
        wi = gc.Tensor(w[:, bounds[i]:bounds[i + 1]])
        bi = bias if merged is None else gc.Tensor(np.zeros(bias.shape))
        m = gc.conv2d(None, hs[i], wi, bi, 1, 0)
        merged = m if merged is None else gc.add(None, gc.upsample_nearest(None, merged, 2), m)
    return merged


def _blocks(feats, params):
    """Each scale's residual block output, at its native resolution."""
    def conv(x, name):
        return gc.conv2d(None, x, params[f"{name}.w"], params[f"{name}.b"], 1, 1)

    return [gc.add(None, f, conv(gc.relu(None, conv(f, f"fuse{i}.conv1")), f"fuse{i}.conv2"))
            for i, f in enumerate(feats, start=1)]


def test_fusion_blocks_run_at_native_scale(monkeypatch):
    net, params, feats = _tiny_model()
    names = {id(t): n[:-2] for n, t in params.items()}
    seen = {}
    real_conv, real_slice = network.conv2d, network.slice_channels

    def spy(tape, x, w, b, stride=1, padding=0, upsample=1):
        seen[names[id(w)]] = x.shape
        return real_conv(tape, x, w, b, stride, padding, upsample)

    def slice_spy(tape, x, lo, hi):
        out = real_slice(tape, x, lo, hi)
        names[id(out)] = f"{names[id(x)]}[{lo}:{hi}]"
        return out

    monkeypatch.setattr(network, "conv2d", spy)
    monkeypatch.setattr(network, "slice_channels", slice_spy)
    fused = network.fuse_multiscale(None, feats, params)
    lo = 0
    for i, f in enumerate(feats, start=1):
        assert seen[f"fuse{i}.conv1"] == f.shape
        assert seen[f"fuse{i}.conv2"][2:] == f.shape[2:]
        assert seen[f"fuse_merge[{lo}:{lo + f.shape[1]}]"] == f.shape
        lo += f.shape[1]
    assert len(seen) == 3 * len(feats)
    assert fused.shape == (2, net.fusion_width, net.height // 2, net.width // 2)

    # In the whole pass only the image (read by the stride-2 enc1.conv1) and
    # refine.conv2's input are at full resolution; refine.conv1 reads the
    # half-resolution maps it upsamples itself.
    seen.clear()
    image = gc.Tensor(gc.Rng(7).fill_uniform((2, network.IMAGE_CHANNELS, net.height, net.width)))
    network.forward(None, image, params)
    full = {name for name, shape in seen.items() if shape[2:] == (net.height, net.width)}
    assert full == {"enc1.conv1", "refine.conv2"}
    assert seen["refine.conv1"] == (2, net.fusion_width + 2, net.height // 2, net.width // 2)


def test_fuse_multiscale_is_the_hand_composition():
    net, params, feats = _tiny_model()
    want = _top_down(_blocks(feats, params), params)
    got = network.fuse_multiscale(None, feats, params)
    np.testing.assert_array_equal(got.data, want.data)


def test_zero_branch_fusion_is_merge_of_upsampled_features():
    net, params, feats = _tiny_model()
    for i in range(1, 5):
        params[f"fuse{i}.conv2.w"].data[...] = 0.0
        params[f"fuse{i}.conv2.b"].data[...] = 0.0
    want = _top_down(list(feats), params)
    got = network.fuse_multiscale(None, feats, params)
    np.testing.assert_array_equal(got.data, want.data)


def test_top_down_merge_is_the_full_resolution_merge():
    # The 1x1 merge of the concatenated blocks, each upsampled to half
    # resolution: the same sum in another order.
    net, params, feats = _tiny_model()
    blocks = _blocks(feats, params)
    ups = [gc.upsample_nearest(None, h, 2**i) for i, h in enumerate(blocks)]
    want = gc.conv2d(None, gc.concat_channels(None, ups), params["fuse_merge.w"],
                     params["fuse_merge.b"], 1, 0)
    got = network.fuse_multiscale(None, feats, params)
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)


def test_refine_is_the_full_resolution_conv_of_the_upsampled_maps():
    # refine.conv1 runs on the half-resolution concat as four phase convs;
    # the reference upsamples the concat and convolves at full resolution.
    net, params, feats = _tiny_model()
    rng = gc.Rng(9)
    coarse_half = gc.Tensor(rng.fill_uniform((2, 1, net.height // 2, net.width // 2), 0.5, 8.0))
    conf_half = gc.Tensor(rng.fill_uniform(coarse_half.shape))
    fused = network.fuse_multiscale(None, feats, params)
    coarse = gc.upsample_nearest(None, coarse_half, 2)
    got = network.refine(None, coarse, coarse_half, conf_half, fused, params)

    def conv(x, name):
        return gc.conv2d(None, x, params[f"{name}.w"], params[f"{name}.b"], 1, 1)

    x = gc.upsample_nearest(None, gc.concat_channels(None, [coarse_half, conf_half, fused]), 2)
    want = gc.add(None, coarse, conv(gc.relu(None, conv(x, "refine.conv1")), "refine.conv2"))
    assert got.shape == (2, 1, net.height, net.width)
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [4, 6])
def test_head_at_half_resolution_is_the_head_of_the_upsampled_logits(k):
    # forward takes its K SID bins from the head's channel count.
    net = tiny_config(extra=[f"k={k}"]).network_config()
    params = network.init_params(net, gc.Rng(0))
    image = gc.Tensor(gc.Rng(7).fill_uniform((2, network.IMAGE_CHANNELS, net.height, net.width)))
    out = network.forward(None, image, params)
    assert out.logits.shape[1:] == (2 * (k - 1), net.height // 2, net.width // 2)
    probs = pair_softmax(None, gc.upsample_nearest(None, out.logits, 2))
    p = expected_label(None, probs)
    np.testing.assert_array_equal(out.coarse.data, label_to_depth_op(None, p, k).data)
    np.testing.assert_array_equal(out.confidence.data, confidence(None, probs, p).data)


def test_encode_takes_rgb_images_only():
    net = tiny_config().network_config()
    params = network.init_params(net, gc.Rng(0))
    image = gc.Tensor(np.zeros((1, network.IMAGE_CHANNELS + 1, net.height, net.width)))
    with pytest.raises(gc.ShapeMismatchError, match="4 channels"):
        network.encode(None, image, params)
