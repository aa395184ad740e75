"""Toy-scale depth network: a 4-stage convolutional encoder, a skip-connected
decoder producing rank logits at half resolution, the ordinal head (paired
classifiers, expected-label decode, confidence) run at that resolution,
multiscale feature fusion (a residual block and a 1x1 merge per scale at its
native resolution, summed top-down to half resolution), and an
additive-residual refinement head driven by coarse depth, confidence and
fused features, which emits the full-resolution depth.

Nearest upsampling commutes with every per-pixel map and every 1x1
convolution, so both run before the upsample, as in the top-down pathway of
a feature pyramid network (Lin et al., CVPR 2017): the same values as
upsampling first, at a fraction of the work. A 3x3 convolution of a x2
nearest upsample splits into four output phases, each a 2x2 convolution of
the un-upsampled input (Shi et al., CVPR 2016), so refine's first conv reads
the half-resolution maps through `conv2d(..., upsample=2)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    slice_channels,
    upsample_nearest,
)
from .ordhead import confidence, expected_label, pair_softmax
from .sid import label_to_depth_op

__all__ = [
    "IMAGE_CHANNELS",
    "NetworkConfig",
    "ForwardResult",
    "init_params",
    "encode",
    "decode_to_logits",
    "fuse_multiscale",
    "refine",
    "forward",
]


IMAGE_CHANNELS = 3  # RGB, the only images read_ppm and generate_scene give


@dataclass(frozen=True)
class NetworkConfig:
    k_levels: int
    height: int
    width: int
    base_width: int = 16
    fusion_width: int = 32

    def __post_init__(self):
        if self.k_levels < 2:
            raise ValueError(f"k_levels must be >= 2, got {self.k_levels}")
        for name in ("height", "width"):
            v = getattr(self, name)
            if v <= 0 or v % 16 != 0:
                raise ValueError(f"{name} must be a positive multiple of 16, got {v}")
        if self.base_width < 1 or self.fusion_width < 1:
            raise ValueError("channel widths must be positive")


class ForwardResult(NamedTuple):
    """coarse, confidence and refined are (B, 1, H, W) at the input's
    resolution; probs (B, K-1, H/2, W/2) and logits (B, 2(K-1), H/2, W/2) are
    at the head's half resolution."""

    coarse: Tensor
    confidence: Tensor
    refined: Tensor
    probs: Tensor
    logits: Tensor


def _conv_specs(config: NetworkConfig):
    """Every convolution as (name, out_channels, in_channels, kernel); the
    order here fixes parameter-store order, init order and checkpoint layout."""
    w1, w2, w3, w4 = (config.base_width * m for m in (1, 2, 4, 8))
    specs = [
        ("enc1.conv1", w1, IMAGE_CHANNELS, 3),
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
    specs = _conv_specs(config)
    params = ParamStore({f"{name}.{part}": shape for name, oc, ic, k in specs
                         for part, shape in (("w", (oc, ic, k, k)), ("b", (1, oc, 1, 1)))})
    for name, oc, ic, k in specs:
        s = math.sqrt(1.0 / (ic * k * k))
        for part in ("w", "b"):
            t = params[f"{name}.{part}"]
            t.data[...] = rng.fill_uniform(t.shape, -s, s)
    return params


def _conv(tape, x, params, name, stride=1, padding=1, upsample=1):
    return conv2d(tape, x, params[f"{name}.w"], params[f"{name}.b"], stride, padding, upsample)


def encode(tape: Tape | None, image: Tensor, params: ParamStore) -> tuple[Tensor, ...]:
    """Four stages of (stride-2 conv3x3, relu, conv3x3, relu); the feature
    maps at scales 1/2, 1/4, 1/8 and 1/16 of the input."""
    b, c, h, w = image.shape
    if c != IMAGE_CHANNELS:
        raise ShapeMismatchError(f"encode: image has {c} channels, expected {IMAGE_CHANNELS}")
    if h % 16 != 0 or w % 16 != 0:
        raise ShapeMismatchError(f"encode: spatial dims ({h}x{w}) must be multiples of 16")
    feats = []
    x = image
    for i in range(1, 5):
        x = relu(tape, _conv(tape, x, params, f"enc{i}.conv1", stride=2))
        x = relu(tape, _conv(tape, x, params, f"enc{i}.conv2"))
        feats.append(x)
    return tuple(feats)


def decode_to_logits(tape: Tape | None, feats: tuple[Tensor, ...], params: ParamStore) -> Tensor:
    """Deepest features upsampled x2, concatenated with the matching skip and
    convolved, three times; a 1x1 head then emits 2*(K-1) channels at half
    resolution, the resolution of the 1/2-scale skip."""
    f1, f2, f3, x = feats
    for name, skip in (("dec3", f3), ("dec2", f2), ("dec1", f1)):
        x = upsample_nearest(tape, x, 2)
        x = concat_channels(tape, [x, skip])
        x = relu(tape, _conv(tape, x, params, name))
    return conv2d(tape, x, params["head.w"], params["head.b"], 1, 0)


def fuse_multiscale(tape: Tape | None, feats: tuple[Tensor, ...], params: ParamStore) -> Tensor:
    """Each scale i refined at its native resolution by a two-conv residual
    block h_i (identity when the branch weights are zero) and merged there by
    its slice of the 1x1 `fuse_merge` conv, m_i = conv1x1(h_i, W[:, lo_i:hi_i]),
    the bias on the 1/16 branch only. From the coarsest scale down,
    m = up2(m) + m_i, which ends at the 1/2 scale; `refine` reads m there.

    This is the 1x1 merge of the concatenated h_i, each upsampled to half
    resolution, up to the order of the sums, at 4**(i-1) times fewer MACs per
    branch."""
    w = params["fuse_merge.w"]
    bias = params["fuse_merge.b"]
    no_bias = Tensor(np.zeros(bias.shape))
    hi = w.shape[1]
    merged = None
    for i in range(len(feats), 0, -1):
        f = feats[i - 1]
        r = relu(tape, _conv(tape, f, params, f"fuse{i}.conv1"))
        r = _conv(tape, r, params, f"fuse{i}.conv2")
        lo = hi - f.shape[1]
        m = conv2d(tape, add(tape, f, r), slice_channels(tape, w, lo, hi),
                   bias if merged is None else no_bias, 1, 0)
        merged = m if merged is None else add(tape, upsample_nearest(tape, merged, 2), m)
        hi = lo
    return merged


def refine(tape: Tape | None, coarse: Tensor, coarse_half: Tensor, conf_half: Tensor,
           fused: Tensor, params: ParamStore) -> Tensor:
    """Additive residual on the full-resolution coarse depth: zero refinement
    weights reproduce it exactly. The residual is conv2(relu(conv1(up2(x))))
    with x the half-resolution coarse depth, confidence and fused features
    concatenated; conv1 runs as four 2x2 phase convs on x itself, and conv2
    at full resolution."""
    x = concat_channels(tape, [coarse_half, conf_half, fused])
    x = relu(tape, _conv(tape, x, params, "refine.conv1", upsample=2))
    residual = _conv(tape, x, params, "refine.conv2")
    return add(tape, coarse, residual)


def forward(tape: Tape | None, image: Tensor, params: ParamStore) -> ForwardResult:
    """One pass: encode, decode to rank logits, then at their half resolution
    the probabilities, the soft-decoded coarse depth and the confidence; fuse
    multiscale features to half resolution too, and refine from those three
    to full resolution. Coarse depth and confidence are upsampled once each
    for the result (the coarse depth is also what refine adds to).

    Every shape follows from `image` and the parameter shapes in `params`
    (see `init_params`); the head's K-1 classifiers fix the K SID bins that
    map the expected label to depth."""
    feats = encode(tape, image, params)
    logits = decode_to_logits(tape, feats, params)
    probs = pair_softmax(tape, logits)
    p = expected_label(tape, probs)
    coarse_half = label_to_depth_op(tape, p, probs.shape[1] + 1)
    conf_half = confidence(tape, probs, p)
    coarse = upsample_nearest(tape, coarse_half, 2)
    conf = upsample_nearest(tape, conf_half, 2)
    fused = fuse_multiscale(tape, feats, params)
    refined = refine(tape, coarse, coarse_half, conf_half, fused, params)
    return ForwardResult(coarse, conf, refined, probs, logits)
