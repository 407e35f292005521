"""Head decoding with grid-sensitivity elimination, and anchor assignment.

The classic decode b_x = sigmoid(t_x) + c_x can only reach the cell
boundaries c_x and c_x + 1 at infinite logits. Scaling the sigmoid by a
factor s > 1 (recentred so the cell midpoint is fixed) lets the center land
exactly on, and slightly past, the boundaries at finite logits:

    b_x = (s * sigmoid(t_x) - (s - 1) / 2 + c_x) * stride

With s = 1 this reduces exactly to the classic equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from detbag.geometry import MAX_SHAPE_AREA, CenterBox

DEFAULT_SENSITIVITY_SCALE = 1.1
DEFAULT_ASSIGN_IOU_THRESHOLD = 0.213  # genetic-search value, library default


@dataclass(frozen=True)
class Anchor:
    """Prior box shape in pixels at network input resolution."""

    w: float
    h: float

    def __post_init__(self):
        if not (0 < self.w < math.inf and 0 < self.h < math.inf):  # False for NaN
            raise ValueError(f"anchor sides must be positive and finite: {self}")
        if not float(self.w) * float(self.h) <= MAX_SHAPE_AREA:
            raise ValueError(f"anchor area must be at most {MAX_SHAPE_AREA}: {self}")


@dataclass(frozen=True)
class RawPrediction:
    """Pre-decode head outputs for one grid cell and one anchor slot."""

    t_x: float
    t_y: float
    t_w: float
    t_h: float
    objectness: float
    class_scores: tuple[float, ...] = ()
    cell: tuple[int, int] = (0, 0)  # (c_x, c_y)
    anchor_index: int = 0


@dataclass(frozen=True)
class DecodeConfig:
    grid_w: int
    grid_h: int
    stride: float
    anchors: tuple[Anchor, ...]
    sensitivity_scale: float = DEFAULT_SENSITIVITY_SCALE

    def __post_init__(self):
        if not (self.grid_w >= 1 and self.grid_h >= 1):
            raise ValueError(f"grid must be at least 1x1: {self.grid_w}x{self.grid_h}")
        if not self.anchors:
            raise ValueError("anchors must not be empty")
        if not 0 < self.stride < math.inf:
            raise ValueError(f"stride must be positive and finite: {self.stride}")
        if not 1.0 <= self.sensitivity_scale < math.inf:
            raise ValueError(
                f"sensitivity scale must be finite and >= 1: {self.sensitivity_scale}")


@dataclass(frozen=True)
class Decoded:
    box: CenterBox  # pixel units
    objectness: float
    class_probs: np.ndarray


def sigmoid(x: float) -> float:
    """Logistic function; raises ValueError on NaN."""
    # branch keeps exp() in the underflow-safe direction
    if x < 0.0:
        e = math.exp(x)
        return e / (1.0 + e)
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    raise ValueError(f"sigmoid of NaN: {x}")


def decode(p: RawPrediction, cfg: DecodeConfig) -> Decoded:
    """Decode raw head outputs into a pixel-space box plus probabilities.
    Raises ValueError on a cell or anchor_index outside `cfg`, and naming
    `p` when its box overflows or any of its logits is NaN."""
    c_x, c_y = p.cell
    if not (0 <= c_x < cfg.grid_w and 0 <= c_y < cfg.grid_h):
        raise ValueError(f"cell {p.cell} outside {cfg.grid_w}x{cfg.grid_h} grid")
    if not 0 <= p.anchor_index < len(cfg.anchors):
        raise ValueError(f"anchor_index {p.anchor_index} outside the "
                         f"{len(cfg.anchors)} anchors")
    anchor = cfg.anchors[p.anchor_index]
    s = cfg.sensitivity_scale
    half_expand = (s - 1.0) / 2.0
    try:
        b_x = (s * sigmoid(p.t_x) - half_expand + c_x) * cfg.stride
        b_y = (s * sigmoid(p.t_y) - half_expand + c_y) * cfg.stride
        box = CenterBox(b_x, b_y, anchor.w * math.exp(p.t_w),
                        anchor.h * math.exp(p.t_h))
        probs = np.array([sigmoid(c) for c in p.class_scores])
        objectness = sigmoid(p.objectness)
    except (OverflowError, ValueError):
        raise ValueError(f"prediction decodes to a non-finite box "
                         f"or probability: {p}") from None
    return Decoded(box, objectness, probs)


def shape_iou(w_a: float, h_a: float, w_b: float, h_b: float) -> float:
    """IoU of two box shapes centered at the same point; 0 when both are
    empty, like the scalar `iou`."""
    if w_a < 0 or h_a < 0 or w_b < 0 or h_b < 0:
        raise ValueError(f"negative box side: {(w_a, h_a, w_b, h_b)}")
    inter = min(w_a, w_b) * min(h_a, h_b)
    union = w_a * h_a + w_b * h_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def assign_anchors(truth: CenterBox, cfg: DecodeConfig,
                   iou_threshold: float = DEFAULT_ASSIGN_IOU_THRESHOLD,
                   ) -> list[tuple[tuple[int, int], int]]:
    """Anchors responsible for a ground-truth box.

    Every anchor whose shape-IoU with the truth (both centered at the truth
    center) exceeds the threshold is assigned, paired with the grid cell
    containing the truth center. If no anchor clears the threshold the
    single best one is returned, so every ground truth stays trainable.
    A center on the grid's far edge belongs to the last cell; a center
    outside [0, grid * stride] raises ValueError naming the truth.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold outside (0, 1): {iou_threshold}")
    if not (0.0 <= truth.x_c <= cfg.grid_w * cfg.stride
            and 0.0 <= truth.y_c <= cfg.grid_h * cfg.stride):
        raise ValueError(f"truth center outside the {cfg.grid_w}x{cfg.grid_h} "
                         f"grid of stride {cfg.stride}: {truth}")
    cell = (min(int(truth.x_c / cfg.stride), cfg.grid_w - 1),
            min(int(truth.y_c / cfg.stride), cfg.grid_h - 1))
    ious = [shape_iou(truth.w, truth.h, a.w, a.h) for a in cfg.anchors]
    chosen = [i for i, v in enumerate(ious) if v > iou_threshold]
    if not chosen:
        chosen = [max(range(len(ious)), key=lambda i: (ious[i], -i))]
    return [(cell, i) for i in chosen]
