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
_FMIN, _FMAX = -sys.float_info.max, sys.float_info.max


def _shape_ok(w, h) -> bool:
    """The rule for every box, anchor and box shape: false for NaN, and for a
    Python int past the float range as for inf; numpy sides do not warn."""
    return 0 <= w <= _FMAX and 0 <= h <= _FMAX and float(w) * float(h) <= MAX_SHAPE_AREA


def _shapes_ok(w: np.ndarray, h: np.ndarray) -> bool:
    """`_shape_ok` of every pair of float arrays; an inf side's area is inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(w.min() >= 0.0 and h.min() >= 0.0 and (w * h).max() <= MAX_SHAPE_AREA)


def _corners_ok(x_min, y_min, x_max, y_max) -> bool:
    """The rule for a corner-form box: finite corners and `_shape_ok` of its
    sides, written out on their floats to save a call per box. An overflowing
    width is inf, and a negative one is x_min > x_max; float(): numpy scalar
    coordinates would warn where a side overflows."""
    if not (_FMIN <= x_min and x_max <= _FMAX and _FMIN <= y_min and y_max <= _FMAX):
        return False
    w, h = float(x_max) - float(x_min), float(y_max) - float(y_min)
    return 0.0 <= w <= _FMAX and 0.0 <= h <= _FMAX and w * h <= MAX_SHAPE_AREA


def _midpoint(lo, hi) -> float:
    """(lo + hi) / 2 of two finite coordinates. Where the sum overflows, both
    lie near the float range and halve exactly, so lo / 2 + hi / 2 is the
    correctly rounded midpoint."""
    lo, hi = float(lo), float(hi)
    mid = (lo + hi) / 2.0
    return lo / 2.0 + hi / 2.0 if math.isinf(mid) else mid


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in corner form."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not _corners_ok(self.x_min, self.y_min, self.x_max, self.y_max):
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
        return CenterBox(_midpoint(self.x_min, self.x_max), _midpoint(self.y_min, self.y_max),
                         self.width, self.height)


@dataclass(frozen=True)
class CenterBox:
    """Axis-aligned rectangle as center point plus width and height."""

    x_c: float
    y_c: float
    w: float
    h: float

    def __post_init__(self):
        if not (_FMIN <= self.x_c <= _FMAX and _FMIN <= self.y_c <= _FMAX
                and _shape_ok(self.w, self.h)):
            raise ValueError(f"negative box size or non-finite box or area above "
                             f"{MAX_SHAPE_AREA}: {self}")

    @property
    def area(self) -> float:
        return self.w * self.h

    def to_corner(self) -> Box:
        x, y, w, h = float(self.x_c), float(self.y_c), float(self.w), float(self.h)
        return Box(x - w / 2.0, y - h / 2.0, x + w / 2.0, y + h / 2.0)


# float(): a numpy scalar coordinate would warn where a side or centre overflows
def _inter_union(a: Box, b: Box) -> tuple[float, float]:
    iw = float(min(a.x_max, b.x_max)) - float(max(a.x_min, b.x_min))
    ih = float(min(a.y_max, b.y_max)) - float(max(a.y_min, b.y_min))
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    return inter, a.area + b.area - inter


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Returns 0 when the union has zero area (two degenerate boxes), so the
    value is always well defined.
    """
    inter, union = _inter_union(a, b)
    return inter / union if union > 0.0 else 0.0


def _enclosing_sides(a: Box, b: Box) -> tuple[float, float]:
    ew = float(max(a.x_max, b.x_max)) - float(min(a.x_min, b.x_min))
    eh = float(max(a.y_max, b.y_max)) - float(min(a.y_min, b.y_min))
    return ew, eh


def giou(a: Box, b: Box) -> float:
    """Generalized IoU: IoU minus the fraction of the smallest enclosing box
    not covered by the union. Range [-1, 1]."""
    # parallel zero-width boxes have c > 0 but union == 0
    inter, union = _inter_union(a, b)
    i = inter / union if union > 0.0 else 0.0
    ew, eh = _enclosing_sides(a, b)
    c = ew * eh
    if c == math.inf:  # union / c: over the longer side scaled by 2**e, then the shorter
        (sw, sh, _, _), e = _far_offsets(corners([a]), corners([b]))
        return i - (1.0 - math.ldexp(union, e.item()) / max(sw.item(), sh.item()) / min(ew, eh))
    return i - (c - union) / c if c > 0.0 else i


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
    dx = (float(a.x_min) + float(a.x_max)) / 2.0 - (float(b.x_min) + float(b.x_max)) / 2.0
    dy = (float(a.y_min) + float(a.y_max)) / 2.0 - (float(b.y_min) + float(b.y_max)) / 2.0
    rho2 = dx * dx + dy * dy
    if c2 == math.inf or not math.isfinite(rho2):
        (ew, eh, dx, dy), _ = _far_offsets(corners([a]), corners([b]))
        c2, rho2 = (ew * ew + eh * eh).item(), (dx * dx + dy * dy).item()
    return i - rho2 / c2


def ciou(a: Box, b: Box) -> float:
    """Complete IoU: DIoU minus an aspect-ratio consistency penalty.

    The penalty weight alpha = v / (1 - IoU + v) is a plain coefficient, not
    differentiated by the loss layer. For a box with zero width or height
    the aspect term v is defined as 0.
    """
    i = iou(a, b)
    d = _diou(a, b, i)
    aw, ah, bw, bh = float(a.width), float(a.height), float(b.width), float(b.height)
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
    with np.errstate(over="ignore"):  # boxes far apart: -inf, clamped to 0 below
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = box_area(a) + box_area(b) - inter
    out = np.zeros(inter.shape)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def _offsets(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Enclosing sides and centre offsets of corner arrays, as in `_diou`."""
    ew = np.maximum(a[..., 2], b[..., 2]) - np.minimum(a[..., 0], b[..., 0])
    eh = np.maximum(a[..., 3], b[..., 3]) - np.minimum(a[..., 1], b[..., 1])
    dx = (a[..., 0] + a[..., 2]) / 2.0 - (b[..., 0] + b[..., 2]) / 2.0
    dy = (a[..., 1] + a[..., 3]) / 2.0 - (b[..., 1] + b[..., 3]) / 2.0
    return ew, eh, dx, dy


def _far_offsets(a: np.ndarray, b: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """`_offsets` of the halved boxes (finite, exactly half for normal floats)
    times the power of two per pair that brings the longer side into [0.5, 1),
    and e such that each is about the unhalved `_offsets` times 2**e."""
    ew, eh, dx, dy = _offsets(a / 2.0, b / 2.0)
    e = -np.frexp(np.maximum(ew, eh))[1]
    return tuple(np.ldexp(v, e) for v in (ew, eh, dx, dy)), e - 1


def box_diou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Array `diou` of corner arrays (..., 4), broadcast like `box_iou`."""
    with np.errstate(over="ignore", invalid="ignore"):  # far pairs: redone below
        ew, eh, dx, dy = _offsets(a, b)
        c2 = ew * ew + eh * eh
        rho2 = dx * dx + dy * dy
    far = (c2 == np.inf) | ~np.isfinite(rho2)
    if far.any():  # over every pair; only the far ones are read
        (ew, eh, dx, dy), _ = _far_offsets(a, b)
        c2 = np.where(far, ew * ew + eh * eh, c2)
        rho2 = np.where(far, dx * dx + dy * dy, rho2)
    penalty = np.zeros(c2.shape)
    np.divide(rho2, c2, out=penalty, where=c2 > 0.0)
    return box_iou(a, b) - penalty
