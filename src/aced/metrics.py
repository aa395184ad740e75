"""Dense depth evaluation metrics: mean absolute relative error, mean log10
error, rms, threshold accuracies delta_i (ratio < 1.25**i), and directed
depth error (side-of-plane agreement). Percentages are reported in [0, 100].
pool_metrics pools per-image reports into one over all their pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MetricsError", "MetricReport", "compute_metrics", "depth_fault", "pool_metrics"]


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
        return dict(vars(self))  # asdict would deep-copy every field


def depth_fault(d: np.ndarray) -> tuple[str, int] | None:
    """("non-finite" or "non-positive", pixel count) of a depth map, or None."""
    if 0 < d.min() <= d.max() < np.inf:  # False for a NaN too
        return None
    bad = ~np.isfinite(d)
    fault, bad = ("non-finite", bad) if bad.any() else ("non-positive", d <= 0)
    return fault, np.count_nonzero(bad)


DDE_PLANE_DEPTH = 3.0  # meters from the camera to the plane that DDE splits at


def compute_metrics(d: np.ndarray, d_gt: np.ndarray) -> MetricReport:
    """Every metric over all pixels of two same-shape finite positive depth
    maps; a metric that overflows is a MetricsError. DDE is the percent of
    pixels whose prediction falls on the same side of the plane at
    DDE_PLANE_DEPTH as the ground truth."""
    if d.shape != d_gt.shape:
        raise MetricsError(f"shape mismatch: {d.shape} vs {d_gt.shape}")
    dv, gv = d.reshape(-1), d_gt.reshape(-1)
    for what, v in (("predicted", dv), ("ground-truth", gv)):
        if fault := depth_fault(v):
            raise MetricsError(f"{fault[0]} depth: {fault[1]} of {v.size} {what} pixels")
    with np.errstate(over="ignore"):
        ratio = np.maximum(dv / gv, gv / dv)
        deltas = [100.0 * float((ratio < 1.25**i).mean()) for i in (1, 2, 3)]
        rep = MetricReport(
            rel=float(np.mean(np.abs(dv - gv) / gv)),
            log10=float(np.mean(np.abs(np.log10(dv) - np.log10(gv)))),
            rms=float(np.sqrt(np.mean((dv - gv) ** 2))),
            delta1=deltas[0],
            delta2=deltas[1],
            delta3=deltas[2],
            dde=100.0 * float(((dv <= DDE_PLANE_DEPTH) == (gv <= DDE_PLANE_DEPTH)).mean()),
            pixel_count=int(dv.size),
        )
    return _finite(rep)


def pool_metrics(reports: list[MetricReport]) -> MetricReport:
    """One report over all pixels of `reports`: each field's pixel-weighted
    mean, summed in order, with rms the root of the pooled mean square."""
    n = sum(rep.pixel_count for rep in reports)
    sums = {key: 0 for key in vars(reports[0]) if key != "pixel_count"}
    for rep in reports:  # an overflow gives inf, a non-finite metric raised below
        terms = {**vars(rep), "rms": rep.rms * rep.rms}
        for key in sums:
            sums[key] += terms[key] * rep.pixel_count
    pooled = {key: total / n for key, total in sums.items()}
    return _finite(MetricReport(**{**pooled, "rms": math.sqrt(pooled["rms"]), "pixel_count": n}))


def _finite(rep: MetricReport) -> MetricReport:
    if overflowed := [key for key, value in vars(rep).items() if not math.isfinite(value)]:
        raise MetricsError(f"non-finite metric: {', '.join(overflowed)}")
    return rep
