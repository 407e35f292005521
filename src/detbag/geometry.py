"""Axis-aligned box representations, conversions, and the IoU metric family.

Boxes are plain floats in either corner form (x_min, y_min, x_max, y_max) or
center form (x_c, y_c, w, h); units are whatever the caller uses (pixels or
normalized), all metrics are scale invariant. The scalar metrics are the
API and the reference; `box_iou` and `box_diou` are their array kernels over
corner arrays, used by suppression, evaluation and anchor clustering.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# the largest box, anchor or box-shape area: the union of any two is finite
MAX_SHAPE_AREA = sys.float_info.max / 2


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in corner form."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        # chained comparisons are False for NaN, so this also rejects it; an
        # overflowing side makes the area inf or NaN and fails the last test
        if not (-math.inf < self.x_min <= self.x_max < math.inf
                and -math.inf < self.y_min <= self.y_max < math.inf
                and (self.x_max - self.x_min) * (self.y_max - self.y_min) <= MAX_SHAPE_AREA):
            raise ValueError(f"degenerate or non-finite box or area above "
                             f"{MAX_SHAPE_AREA}: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_center(self) -> "CenterBox":
        return CenterBox(
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
            self.width,
            self.height,
        )


@dataclass(frozen=True)
class CenterBox:
    """Axis-aligned rectangle as center point plus width and height."""

    x_c: float
    y_c: float
    w: float
    h: float

    def __post_init__(self):
        if not (-math.inf < self.x_c < math.inf and -math.inf < self.y_c < math.inf
                and 0 <= self.w < math.inf and 0 <= self.h < math.inf
                and self.w * self.h <= MAX_SHAPE_AREA):
            raise ValueError(f"negative box size or non-finite box or area above "
                             f"{MAX_SHAPE_AREA}: {self}")

    @property
    def area(self) -> float:
        return self.w * self.h

    def to_corner(self) -> Box:
        return Box(
            self.x_c - self.w / 2.0,
            self.y_c - self.h / 2.0,
            self.x_c + self.w / 2.0,
            self.y_c + self.h / 2.0,
        )


def _inter_union(a: Box, b: Box) -> tuple[float, float]:
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    return inter, a.area + b.area - inter


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Returns 0 when the union has zero area (two degenerate boxes), so the
    value is always well defined.
    """
    inter, union = _inter_union(a, b)
    if union <= 0.0:
        return 0.0
    return inter / union


def _enclosing_sides(a: Box, b: Box) -> tuple[float, float]:
    ew = max(a.x_max, b.x_max) - min(a.x_min, b.x_min)
    eh = max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    return ew, eh


def giou(a: Box, b: Box) -> float:
    """Generalized IoU: IoU minus the fraction of the smallest enclosing box
    not covered by the union. Range [-1, 1]."""
    ew, eh = _enclosing_sides(a, b)
    c = ew * eh
    if c <= 0.0:
        return iou(a, b)
    # parallel zero-width boxes have c > 0 but union == 0
    inter, union = _inter_union(a, b)
    i = inter / union if union > 0.0 else 0.0
    return i - (c - union) / c


def diou(a: Box, b: Box) -> float:
    """Distance IoU: IoU minus squared center distance over squared
    enclosing-box diagonal."""
    return _diou(a, b, iou(a, b))


def _diou(a: Box, b: Box, i: float) -> float:
    """`diou` given i = iou(a, b)."""
    ew, eh = _enclosing_sides(a, b)
    c2 = ew * ew + eh * eh
    if c2 <= 0.0:
        return i
    ax = (a.x_min + a.x_max) / 2.0
    ay = (a.y_min + a.y_max) / 2.0
    bx = (b.x_min + b.x_max) / 2.0
    by = (b.y_min + b.y_max) / 2.0
    dx, dy = ax - bx, ay - by
    rho2 = dx * dx + dy * dy
    return i - rho2 / c2


def ciou(a: Box, b: Box) -> float:
    """Complete IoU: DIoU minus an aspect-ratio consistency penalty.

    The penalty weight alpha = v / (1 - IoU + v) is a plain coefficient, not
    differentiated by the loss layer. For a box with zero width or height
    the aspect term v is defined as 0.
    """
    i = iou(a, b)
    d = _diou(a, b, i)
    aw, ah = a.width, a.height
    bw, bh = b.width, b.height
    if aw <= 0.0 or ah <= 0.0 or bw <= 0.0 or bh <= 0.0:
        return d
    delta = math.atan(bw / bh) - math.atan(aw / ah)
    v = 4.0 / math.pi**2 * delta * delta
    if v == 0.0:
        return d
    alpha = v / (1.0 - i + v)
    return d - alpha * v


def corners(boxes) -> np.ndarray:
    """(n, 4) float array of (x_min, y_min, x_max, y_max) rows."""
    return np.array([[b.x_min, b.y_min, b.x_max, b.y_max] for b in boxes],
                    dtype=float).reshape(-1, 4)


def box_area(c: np.ndarray) -> np.ndarray:
    """Array `Box.area` of corner arrays (..., 4)."""
    return (c[..., 2] - c[..., 0]) * (c[..., 3] - c[..., 1])


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Array `iou` of corner arrays (..., 4), broadcast against each other:
    (4,) x (m, 4) gives a row, (n, 1, 4) x (1, m, 4) an (n, m) matrix.
    Equals the scalar `iou` exactly, including 0 for an empty union."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = box_area(a) + box_area(b) - inter
    out = np.zeros(inter.shape)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def box_diou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Array `diou` of corner arrays (..., 4), broadcast like `box_iou`."""
    ew = np.maximum(a[..., 2], b[..., 2]) - np.minimum(a[..., 0], b[..., 0])
    eh = np.maximum(a[..., 3], b[..., 3]) - np.minimum(a[..., 1], b[..., 1])
    c2 = ew * ew + eh * eh
    dx = (a[..., 0] + a[..., 2]) / 2.0 - (b[..., 0] + b[..., 2]) / 2.0
    dy = (a[..., 1] + a[..., 3]) / 2.0 - (b[..., 1] + b[..., 3]) / 2.0
    rho2 = dx * dx + dy * dy
    penalty = np.zeros(c2.shape)
    np.divide(rho2, c2, out=penalty, where=c2 > 0.0)
    return box_iou(a, b) - penalty
