"""Network graph layout: the RGB input, and where the multiscale fusion blocks run."""

import numpy as np
import pytest

from aced import gradcore as gc
from aced import network
from conftest import tiny_config


def _tiny_model(seed=0):
    cfg = tiny_config()
    net = cfg.network_config()
    params = network.init_params(net, gc.Rng(seed))
    image = gc.Tensor(gc.Rng(seed + 1).fill_uniform((2, network.IMAGE_CHANNELS, net.height, net.width)))
    feats = network.encode(None, image, params)
    return net, params, feats


def test_fusion_blocks_run_at_native_scale(monkeypatch):
    net, params, feats = _tiny_model()
    names = {id(t): n[:-2] for n, t in params.items()}
    seen = {}
    real = network.conv2d

    def spy(tape, x, w, b, stride=1, padding=0):
        seen[names[id(w)]] = x.shape
        return real(tape, x, w, b, stride, padding)

    monkeypatch.setattr(network, "conv2d", spy)
    fused = network.fuse_multiscale(None, feats, params)
    for i, f in enumerate(feats, start=1):
        assert seen[f"fuse{i}.conv1"] == f.shape
        assert seen[f"fuse{i}.conv2"][2:] == f.shape[2:]
    assert seen["fuse_merge"][2:] == (net.height, net.width)
    assert fused.shape == (2, net.fusion_width, net.height, net.width)


def test_fuse_multiscale_is_the_hand_composition():
    net, params, feats = _tiny_model()

    def conv(x, name, padding):
        return gc.conv2d(None, x, params[f"{name}.w"], params[f"{name}.b"], 1, padding)

    blocks = []
    for i, f in enumerate(feats, start=1):
        r = conv(gc.relu(None, conv(f, f"fuse{i}.conv1", 1)), f"fuse{i}.conv2", 1)
        blocks.append(gc.upsample_nearest(None, gc.add(None, f, r), 2**i))
    want = conv(gc.concat_channels(None, blocks), "fuse_merge", 0)
    got = network.fuse_multiscale(None, feats, params)
    np.testing.assert_array_equal(got.data, want.data)


def test_zero_branch_fusion_is_merge_of_upsampled_features():
    net, params, feats = _tiny_model()
    for i in range(1, 5):
        params[f"fuse{i}.conv2.w"].data[...] = 0.0
        params[f"fuse{i}.conv2.b"].data[...] = 0.0
    ups = [gc.upsample_nearest(None, f, 2**i) for i, f in enumerate(feats, start=1)]
    want = gc.conv2d(None, gc.concat_channels(None, ups), params["fuse_merge.w"],
                     params["fuse_merge.b"], 1, 0)
    got = network.fuse_multiscale(None, feats, params)
    np.testing.assert_array_equal(got.data, want.data)


def test_encode_takes_rgb_images_only():
    net = tiny_config().network_config()
    params = network.init_params(net, gc.Rng(0))
    image = gc.Tensor(np.zeros((1, network.IMAGE_CHANNELS + 1, net.height, net.width)))
    with pytest.raises(gc.ShapeMismatchError, match="4 channels"):
        network.encode(None, image, params)
