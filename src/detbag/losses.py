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


_VARIANTS = {v.value: v for v in LossVariant}


def box_loss(pred: CenterBox, truth: CenterBox,
             variant: LossVariant | str = LossVariant.CIOU) -> BoxLossResult:
    """Regression loss between a predicted and a ground-truth box.

    MSE is the unweighted sum of squared errors over the four center-form
    coordinates. The IoU-family variants return 1 - metric(pred, truth);
    for CIOU the aspect-penalty weight alpha is treated as a constant, so
    the gradient does not flow through it. `variant` is a `LossVariant` or
    its name in any case.

    Raises ValueError on an unknown variant, when the truth has zero width
    or height, and for IoU-family variants when the prediction does (the
    caller must clamp). `CenterBox` itself rejects non-finite coordinates.
    """
    if isinstance(variant, str):
        variant = _VARIANTS.get(variant.lower(), variant)
    if not isinstance(variant, LossVariant):
        raise ValueError(f"unknown loss variant: {variant!r}")
    if truth.w <= 0 or truth.h <= 0:
        raise ValueError(f"ground-truth box must have positive size: {truth}")

    if variant is LossVariant.MSE:
        diff = (np.array([pred.x_c, pred.y_c, pred.w, pred.h], dtype=float)
                - np.array([truth.x_c, truth.y_c, truth.w, truth.h], dtype=float))
        return BoxLossResult(float(diff @ diff), 2.0 * diff)

    if pred.w <= 0 or pred.h <= 0:
        raise ValueError(
            f"{variant.value} loss needs a predicted box with positive size: {pred}")
    metric, (gx, gy, gw, gh) = _metric_with_grad(pred, truth, variant)
    return BoxLossResult(1.0 - metric, np.array([-gx, -gy, -gw, -gh]))


def _binding(hi: float, lo: float) -> tuple[float, float]:
    """(d/d center, d/d size) of a side length whose upper end is the
    predicted x2 = x + w/2 when `hi` is 1.0 and whose lower end is the
    predicted x1 = x - w/2 when `lo` is 1.0; a tie binds the truth's corner.
    The flags are 0.0 or 1.0."""
    return hi - lo, 0.5 * (hi + lo)


def _metric_with_grad(pred: CenterBox, truth: CenterBox, variant: LossVariant
                      ) -> tuple[float, tuple[float, float, float, float]]:
    """IoU-family metric and its gradient w.r.t. the predicted (x, y, w, h).

    Corner coordinates are affine in the center parameters
    (x1 = x - w/2, x2 = x + w/2), so every min/max in the metric contributes
    the corner's (x, w) sensitivities only where the predicted corner is the
    binding one. Each gradient is four Python floats in (x, y, w, h) order,
    and every term is formed in the order an elementwise 4-vector would form
    it, so the result (signed zeros included) is the vector derivation's.
    """
    px, py, pw, ph = float(pred.x_c), float(pred.y_c), float(pred.w), float(pred.h)
    tx, ty, tw, th = float(truth.x_c), float(truth.y_c), float(truth.w), float(truth.h)
    px1, px2 = px - pw / 2, px + pw / 2
    py1, py2 = py - ph / 2, py + ph / 2
    tx1, tx2 = tx - tw / 2, tx + tw / 2
    ty1, ty2 = ty - th / 2, ty + th / 2

    # intersection; d(corner)/d(x, w) pairs are (1, -1/2) and (1, +1/2)
    ix1, ix2 = max(px1, tx1), min(px2, tx2)
    iy1, iy2 = max(py1, ty1), min(py2, ty2)
    iw, ih = ix2 - ix1, iy2 - iy1
    diw_x, diw_w = _binding(float(px2 < tx2), float(px1 > tx1))
    dih_y, dih_h = _binding(float(py2 < ty2), float(py1 > ty1))
    if iw > 0.0 and ih > 0.0:
        inter = iw * ih
        di_x, di_y, di_w, di_h = ih * diw_x, iw * dih_y, ih * diw_w, iw * dih_h
    else:
        inter = 0.0
        di_x = di_y = di_w = di_h = 0.0

    union = pw * ph + tw * th - inter
    du_x, du_y, du_w, du_h = 0.0 - di_x, 0.0 - di_y, ph - di_w, pw - di_h
    iou = inter / union
    u2 = union**2
    g_x = (di_x * union - inter * du_x) / u2
    g_y = (di_y * union - inter * du_y) / u2
    g_w = (di_w * union - inter * du_w) / u2
    g_h = (di_h * union - inter * du_h) / u2
    if variant is LossVariant.IOU:
        return iou, (g_x, g_y, g_w, g_h)

    # enclosing box sides and their sensitivities
    ex1, ex2 = min(px1, tx1), max(px2, tx2)
    ey1, ey2 = min(py1, ty1), max(py2, ty2)
    ew, eh = ex2 - ex1, ey2 - ey1
    dew_x, dew_w = _binding(float(px2 > tx2), float(px1 < tx1))
    deh_y, deh_h = _binding(float(py2 > ty2), float(py1 < ty1))

    if variant is LossVariant.GIOU:
        c = ew * eh
        dc_x, dc_y, dc_w, dc_h = eh * dew_x, ew * deh_y, eh * dew_w, ew * deh_h
        # giou = iou - (C - U)/C = iou - 1 + U/C
        giou = iou - (c - union) / c
        c_2 = c**2
        return giou, (g_x + (du_x * c - union * dc_x) / c_2,
                      g_y + (du_y * c - union * dc_y) / c_2,
                      g_w + (du_w * c - union * dc_w) / c_2,
                      g_h + (du_h * c - union * dc_h) / c_2)

    rho2 = (px - tx) ** 2 + (py - ty) ** 2
    c2 = ew * ew + eh * eh
    dc2_x, dc2_y, dc2_w, dc2_h = (2 * ew * dew_x, 2 * eh * deh_y,
                                  2 * ew * dew_w, 2 * eh * deh_h)
    diou = iou - rho2 / c2
    # d(rho2) is (2 (px - tx), 2 (py - ty), 0, 0); its zeros stay as the
    # vector form's 0.0 * c2 terms
    c2_2 = c2**2
    g_x = g_x - (2 * (px - tx) * c2 - rho2 * dc2_x) / c2_2
    g_y = g_y - (2 * (py - ty) * c2 - rho2 * dc2_y) / c2_2
    g_w = g_w - (0.0 * c2 - rho2 * dc2_w) / c2_2
    g_h = g_h - (0.0 * c2 - rho2 * dc2_h) / c2_2
    if variant is LossVariant.DIOU:
        return diou, (g_x, g_y, g_w, g_h)

    delta = math.atan(tw / th) - math.atan(pw / ph)
    v = 4.0 / math.pi**2 * delta * delta
    alpha = v / (1.0 - iou + v) if v > 0.0 else 0.0
    s = pw * pw + ph * ph
    # d(v) is (0, 0, -8/pi^2 delta ph / s, 8/pi^2 delta pw / s)
    return diou - alpha * v, (g_x - alpha * 0.0, g_y - alpha * 0.0,
                              g_w - alpha * (-8.0 / math.pi**2 * delta * ph / s),
                              g_h - alpha * (8.0 / math.pi**2 * delta * pw / s))


def label_smooth(onehot: np.ndarray, epsilon: float) -> np.ndarray:
    """Soften a probability vector: out_i = p_i * (1 - eps) + eps / K.

    The output still sums to 1 and keeps the argmax of the input for any
    epsilon < (K-1)/K. Raises ValueError on an epsilon outside [0, 1), on
    an input without a non-empty last axis, and on non-finite entries.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1): {epsilon}")
    p = np.asarray(onehot, dtype=float)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError(f"onehot needs a non-empty last axis, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("onehot has a non-finite entry")
    return p * (1.0 - epsilon) + epsilon / p.shape[-1]
