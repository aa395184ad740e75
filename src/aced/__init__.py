"""Differentiable ordinal-regression depth estimation at desk scale.

Depth is discretized into geometric bins, predicted by a bank of paired
binary classifiers, decoded differentiably via the expected label, scored
with a per-pixel confidence, and refined by a residual stage — trained end
to end on a built-in float64 reverse-mode autodiff core.
"""

from .gradcore import (
    ParamStore,
    Rng,
    Tape,
    Tensor,
    adam_step,
    backward,
    derive_seed,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
)
from .losses import LossWeights, loss_grad, loss_log, total_loss
from .metrics import MetricReport, compute_dde, compute_metrics
from .network import NetworkConfig, forward, init_params
from .ordhead import confidence, expected_label, ordinal_loss, pair_softmax, soft_decode
from .sid import (
    DepthRange,
    SidThresholds,
    depth_to_label,
    encode_rank,
    hard_decode,
    label_to_depth,
    make_thresholds,
)

__version__ = "0.1.0"
