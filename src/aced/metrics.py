"""Dense depth evaluation metrics: mean absolute relative error, mean log10
error, rms, threshold accuracies delta_i (ratio < 1.25**i), and directed
depth error (side-of-plane agreement). Percentages are reported in [0, 100].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .gradcore import Tensor

__all__ = ["MetricsError", "MetricReport", "compute_metrics", "compute_dde"]


class MetricsError(Exception):
    pass


@dataclass(frozen=True)
class MetricReport:
    rel: float
    log10: float
    rms: float
    delta1: float
    delta2: float
    delta3: float
    dde: float
    pixel_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def _masked(d, d_gt, mask) -> tuple[np.ndarray, np.ndarray]:
    da = d.data if isinstance(d, Tensor) else np.asarray(d, dtype=np.float64)
    ga = d_gt.data if isinstance(d_gt, Tensor) else np.asarray(d_gt, dtype=np.float64)
    if da.shape != ga.shape:
        raise MetricsError(f"shape mismatch: {da.shape} vs {ga.shape}")
    if mask is None:
        sel = np.ones(da.shape, dtype=bool)
    else:
        m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
        if m.shape != da.shape:
            raise MetricsError(f"mask shape {m.shape} != {da.shape}")
        sel = m > 0
    if not sel.any():
        raise MetricsError("empty mask")
    dv, gv = da[sel], ga[sel]
    if dv.min() <= 0 or gv.min() <= 0:
        raise MetricsError("non-positive depth inside the mask")
    return dv, gv


def compute_metrics(d, d_gt, mask=None, plane_depth: float = 3.0) -> MetricReport:
    dv, gv = _masked(d, d_gt, mask)
    ratio = np.maximum(dv / gv, gv / dv)
    deltas = [100.0 * float((ratio < 1.25**i).mean()) for i in (1, 2, 3)]
    return MetricReport(
        rel=float(np.mean(np.abs(dv - gv) / gv)),
        log10=float(np.mean(np.abs(np.log10(dv) - np.log10(gv)))),
        rms=float(np.sqrt(np.mean((dv - gv) ** 2))),
        delta1=deltas[0],
        delta2=deltas[1],
        delta3=deltas[2],
        dde=compute_dde(d, d_gt, mask, plane_depth),
        pixel_count=int(dv.size),
    )


def compute_dde(d, d_gt, mask=None, plane_depth: float = 3.0) -> float:
    """Percent of pixels whose prediction falls on the same side of the
    reference plane as the ground truth."""
    dv, gv = _masked(d, d_gt, mask)
    pred_near = dv <= plane_depth
    gt_near = gv <= plane_depth
    return 100.0 * float((pred_near == gt_near).mean())
