"""Toy-scale depth network: a 4-stage convolutional encoder, a skip-connected
decoder producing rank logits, nearest-upsampled multiscale feature fusion,
and an additive-residual refinement head driven by coarse depth, confidence
and fused features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .gradcore import (
    ParamStore,
    Rng,
    ShapeMismatchError,
    Tape,
    Tensor,
    add,
    concat_channels,
    conv2d,
    relu,
    upsample_nearest,
)
from .ordhead import confidence, expected_label, pair_softmax
from .sid import SidThresholds, label_to_depth_op

__all__ = [
    "NetworkConfig",
    "EncoderFeatures",
    "ForwardResult",
    "stage_widths",
    "init_params",
    "encode",
    "decode_to_logits",
    "fuse_multiscale",
    "refine",
    "forward",
]


@dataclass(frozen=True)
class NetworkConfig:
    k_levels: int
    height: int
    width: int
    input_channels: int = 3
    base_width: int = 16
    fusion_width: int = 32

    def __post_init__(self):
        if self.k_levels < 2:
            raise ValueError(f"k_levels must be >= 2, got {self.k_levels}")
        for name in ("height", "width"):
            v = getattr(self, name)
            if v <= 0 or v % 16 != 0:
                raise ValueError(f"{name} must be a positive multiple of 16, got {v}")
        if self.input_channels < 1 or self.base_width < 1 or self.fusion_width < 1:
            raise ValueError("channel widths must be positive")


class EncoderFeatures(NamedTuple):
    """Feature maps at scales 1/2, 1/4, 1/8, 1/16 of the input."""

    f1: Tensor
    f2: Tensor
    f3: Tensor
    f4: Tensor


class ForwardResult(NamedTuple):
    coarse: Tensor
    confidence: Tensor
    refined: Tensor
    probs: Tensor


def stage_widths(config: NetworkConfig) -> tuple[int, int, int, int]:
    bw = config.base_width
    return (bw, 2 * bw, 4 * bw, 8 * bw)


def _conv_specs(config: NetworkConfig):
    """Every convolution as (name, out_channels, in_channels, kernel); the
    order here fixes parameter-store order, init order and checkpoint layout."""
    w1, w2, w3, w4 = stage_widths(config)
    specs = [
        ("enc1.conv1", w1, config.input_channels, 3),
        ("enc1.conv2", w1, w1, 3),
        ("enc2.conv1", w2, w1, 3),
        ("enc2.conv2", w2, w2, 3),
        ("enc3.conv1", w3, w2, 3),
        ("enc3.conv2", w3, w3, 3),
        ("enc4.conv1", w4, w3, 3),
        ("enc4.conv2", w4, w4, 3),
        ("dec3", w3, w4 + w3, 3),
        ("dec2", w2, w3 + w2, 3),
        ("dec1", w1, w2 + w1, 3),
        ("head", 2 * (config.k_levels - 1), w1, 1),
    ]
    for i, wi in enumerate((w1, w2, w3, w4), start=1):
        specs.append((f"fuse{i}.conv1", wi, wi, 3))
        specs.append((f"fuse{i}.conv2", wi, wi, 3))
    specs.append(("fuse_merge", config.fusion_width, w1 + w2 + w3 + w4, 1))
    specs.append(("refine.conv1", config.fusion_width, config.fusion_width + 2, 3))
    specs.append(("refine.conv2", 1, config.fusion_width, 3))
    return specs


def init_params(config: NetworkConfig, rng: Rng) -> ParamStore:
    """Every parameter uniform in [-s, s] with s = sqrt(1/fan_in), where
    fan_in = inC*k*k of the owning convolution."""
    params = ParamStore()
    for name, oc, ic, k in _conv_specs(config):
        s = math.sqrt(1.0 / (ic * k * k))
        params.add(f"{name}.w", rng.fill_uniform((oc, ic, k, k), -s, s))
        params.add(f"{name}.b", rng.fill_uniform((1, oc, 1, 1), -s, s))
    return params


def _conv(tape, x, params, name, stride=1, padding=1):
    return conv2d(tape, x, params[f"{name}.w"], params[f"{name}.b"], stride, padding)


def encode(tape: Tape | None, image: Tensor, params: ParamStore, config: NetworkConfig) -> EncoderFeatures:
    """Four stages of (stride-2 conv3x3, relu, conv3x3, relu)."""
    b, c, h, w = image.shape
    if c != config.input_channels:
        raise ShapeMismatchError(f"encode: image has {c} channels, config says {config.input_channels}")
    if h % 16 != 0 or w % 16 != 0:
        raise ShapeMismatchError(f"encode: spatial dims ({h}x{w}) must be multiples of 16")
    feats = []
    x = image
    for i in range(1, 5):
        x = relu(tape, _conv(tape, x, params, f"enc{i}.conv1", stride=2))
        x = relu(tape, _conv(tape, x, params, f"enc{i}.conv2"))
        feats.append(x)
    return EncoderFeatures(*feats)


def decode_to_logits(tape: Tape | None, feats: EncoderFeatures, params: ParamStore, config: NetworkConfig) -> Tensor:
    """Deepest features upsampled x2, concatenated with the matching skip and
    convolved, three times; a 1x1 head emits 2*(K-1) channels at half
    resolution which are then upsampled to full resolution."""
    x = feats.f4
    for name, skip in (("dec3", feats.f3), ("dec2", feats.f2), ("dec1", feats.f1)):
        x = upsample_nearest(tape, x, 2)
        x = concat_channels(tape, [x, skip])
        x = relu(tape, _conv(tape, x, params, name))
    logits = conv2d(tape, x, params["head.w"], params["head.b"], 1, 0)
    return upsample_nearest(tape, logits, 2)


def fuse_multiscale(tape: Tape | None, feats: EncoderFeatures, params: ParamStore, config: NetworkConfig) -> Tensor:
    """Each scale upsampled to full resolution, refined by a two-conv residual
    block (identity when the branch weights are zero), then concatenated and
    merged with a 1x1 convolution."""
    refined = []
    for i, f in enumerate(feats, start=1):
        up = upsample_nearest(tape, f, 2**i)
        r = relu(tape, _conv(tape, up, params, f"fuse{i}.conv1"))
        r = _conv(tape, r, params, f"fuse{i}.conv2")
        refined.append(add(tape, up, r))
    merged = concat_channels(tape, refined)
    return conv2d(tape, merged, params["fuse_merge.w"], params["fuse_merge.b"], 1, 0)


def refine(tape: Tape | None, coarse: Tensor, conf: Tensor, fused: Tensor, params: ParamStore) -> Tensor:
    """Additive residual on the coarse depth: zero refinement weights
    reproduce the coarse map exactly."""
    x = concat_channels(tape, [coarse, conf, fused])
    x = relu(tape, _conv(tape, x, params, "refine.conv1"))
    residual = _conv(tape, x, params, "refine.conv2")
    return add(tape, coarse, residual)


def forward(
    tape: Tape | None,
    image: Tensor,
    params: ParamStore,
    config: NetworkConfig,
    th: SidThresholds,
    detach_confidence: bool = False,
) -> ForwardResult:
    """One pass: encode, decode to rank probabilities, soft-decode coarse
    depth plus confidence, fuse multiscale features, refine."""
    feats = encode(tape, image, params, config)
    logits = decode_to_logits(tape, feats, params, config)
    probs = pair_softmax(tape, logits)
    p = expected_label(tape, probs)
    coarse = label_to_depth_op(tape, p, th)
    conf = confidence(tape, probs, p)
    fused = fuse_multiscale(tape, feats, params, config)
    conf_in = conf.detached() if detach_confidence else conf
    refined = refine(tape, coarse, conf_in, fused, params)
    return ForwardResult(coarse, conf, refined, probs)
