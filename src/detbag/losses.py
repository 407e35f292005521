"""Box-regression losses with analytic gradients, plus label smoothing.

All box losses are expressed over center-form parameters (x_c, y_c, w, h) of
the predicted box, matching what a detector head decodes. IoU-family losses
are 1 - metric; their gradients are exact except on the measure-zero set
where two box edges coincide (a subgradient is returned there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from detbag.geometry import CenterBox


class LossVariant(Enum):
    MSE = "mse"
    IOU = "iou"
    GIOU = "giou"
    DIOU = "diou"
    CIOU = "ciou"


@dataclass(frozen=True)
class BoxLossResult:
    """Loss value and its gradient w.r.t. the predicted (x_c, y_c, w, h)."""

    value: float
    grad: np.ndarray  # shape (4,)


def box_loss(pred: CenterBox, truth: CenterBox,
             variant: LossVariant | str = LossVariant.CIOU) -> BoxLossResult:
    """Regression loss between a predicted and a ground-truth box.

    MSE is the unweighted sum of squared errors over the four center-form
    coordinates. The IoU-family variants return 1 - metric(pred, truth);
    for CIOU the aspect-penalty weight alpha is treated as a constant, so
    the gradient does not flow through it.

    Raises ValueError when the truth has zero width or height, and for
    IoU-family variants when the prediction does (the caller must clamp).
    `CenterBox` itself rejects non-finite coordinates.
    """
    if isinstance(variant, str):
        variant = LossVariant(variant.lower())
    p = np.array([pred.x_c, pred.y_c, pred.w, pred.h], dtype=float)
    t = np.array([truth.x_c, truth.y_c, truth.w, truth.h], dtype=float)
    if truth.w <= 0 or truth.h <= 0:
        raise ValueError(f"ground-truth box must have positive size: {truth}")

    if variant is LossVariant.MSE:
        diff = p - t
        return BoxLossResult(float(diff @ diff), 2.0 * diff)

    if pred.w <= 0 or pred.h <= 0:
        raise ValueError(
            f"{variant.value} loss needs a predicted box with positive size: {pred}")
    metric, grad = _metric_with_grad(p, t, variant)
    return BoxLossResult(1.0 - metric, -grad)


def _binding(hi, lo) -> tuple[float, float]:
    """(d/d center, d/d size) of a side length whose upper end is the
    predicted x2 = x + w/2 when `hi` and whose lower end is the predicted
    x1 = x - w/2 when `lo`; a tie binds the truth's corner. The flags are
    np.bool_, whose `+` is a logical or, so they become floats first."""
    hi, lo = float(hi), float(lo)
    return hi - lo, 0.5 * (hi + lo)


def _metric_with_grad(p: np.ndarray, t: np.ndarray,
                      variant: LossVariant) -> tuple[float, np.ndarray]:
    """IoU-family metric and its gradient w.r.t. p = (x, y, w, h).

    Corner coordinates are affine in the center parameters
    (x1 = x - w/2, x2 = x + w/2), so every min/max in the metric contributes
    the corner's (x, w) sensitivities only where the predicted corner is the
    binding one.
    """
    px, py, pw, ph = p
    tx, ty, tw, th = t
    px1, px2 = px - pw / 2, px + pw / 2
    py1, py2 = py - ph / 2, py + ph / 2
    tx1, tx2 = tx - tw / 2, tx + tw / 2
    ty1, ty2 = ty - th / 2, ty + th / 2

    # intersection; d(corner)/d(x, w) pairs are (1, -1/2) and (1, +1/2)
    ix1, ix2 = max(px1, tx1), min(px2, tx2)
    iy1, iy2 = max(py1, ty1), min(py2, ty2)
    iw, ih = ix2 - ix1, iy2 - iy1
    diw_x, diw_w = _binding(px2 < tx2, px1 > tx1)
    dih_y, dih_h = _binding(py2 < ty2, py1 > ty1)
    if iw > 0.0 and ih > 0.0:
        inter = iw * ih
        d_inter = np.array([ih * diw_x, iw * dih_y, ih * diw_w, iw * dih_h])
    else:
        inter = 0.0
        d_inter = np.zeros(4)

    union = pw * ph + tw * th - inter
    d_union = np.array([0.0, 0.0, ph, pw]) - d_inter
    iou = inter / union
    d_iou = (d_inter * union - inter * d_union) / union**2
    if variant is LossVariant.IOU:
        return iou, d_iou

    # enclosing box sides and their sensitivities
    ex1, ex2 = min(px1, tx1), max(px2, tx2)
    ey1, ey2 = min(py1, ty1), max(py2, ty2)
    ew, eh = ex2 - ex1, ey2 - ey1
    dew_x, dew_w = _binding(px2 > tx2, px1 < tx1)
    deh_y, deh_h = _binding(py2 > ty2, py1 < ty1)

    if variant is LossVariant.GIOU:
        c = ew * eh
        d_c = np.array([eh * dew_x, ew * deh_y, eh * dew_w, ew * deh_h])
        # giou = iou - (C - U)/C = iou - 1 + U/C
        giou = iou - (c - union) / c
        d_giou = d_iou + (d_union * c - union * d_c) / c**2
        return giou, d_giou

    rho2 = (px - tx) ** 2 + (py - ty) ** 2
    d_rho2 = np.array([2 * (px - tx), 2 * (py - ty), 0.0, 0.0])
    c2 = ew * ew + eh * eh
    d_c2 = np.array([2 * ew * dew_x, 2 * eh * deh_y, 2 * ew * dew_w, 2 * eh * deh_h])
    diou = iou - rho2 / c2
    d_diou = d_iou - (d_rho2 * c2 - rho2 * d_c2) / c2**2
    if variant is LossVariant.DIOU:
        return diou, d_diou

    delta = math.atan(tw / th) - math.atan(pw / ph)
    v = 4.0 / math.pi**2 * delta * delta
    alpha = v / (1.0 - iou + v) if v > 0.0 else 0.0
    s = pw * pw + ph * ph
    d_v = np.array([0.0, 0.0,
                    -8.0 / math.pi**2 * delta * ph / s,
                    8.0 / math.pi**2 * delta * pw / s])
    return diou - alpha * v, d_diou - alpha * d_v


def label_smooth(onehot: np.ndarray, epsilon: float) -> np.ndarray:
    """Soften a probability vector: out_i = p_i * (1 - eps) + eps / K.

    The output still sums to 1 and keeps the argmax of the input for any
    epsilon < (K-1)/K.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1): {epsilon}")
    p = np.asarray(onehot, dtype=float)
    return p * (1.0 - epsilon) + epsilon / p.shape[-1]


def loss_normalize(raw_loss: float, normalizer: float) -> float:
    """Scale a raw loss by a positive normalizer (searched default 0.07)."""
    if normalizer <= 0.0:
        raise ValueError(f"normalizer must be positive: {normalizer}")
    return raw_loss * normalizer
