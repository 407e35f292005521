"""Non-maximum suppression variants: greedy, soft (linear/gaussian), DIoU.

Suppression is strictly class-wise; detections of distinct classes never
affect one another. Score ties are broken by lower input index, so results
are deterministic across platforms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from detbag.geometry import Box, box_diou, box_iou, corners

SCORE_FLOOR = 0.001
_BLOCK = 32  # overlap rows per kernel call in _suppress


@dataclass(frozen=True)
class Detection:
    """A scored, class-labeled box."""

    box: Box
    score: float
    class_id: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score outside [0, 1]: {self.score}")
        if self.class_id < 0:
            raise ValueError(f"negative class id: {self.class_id}")


def detection_arrays(dets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, 4) corners, scores and class ids of a detection list."""
    return (corners(d.box for d in dets), np.array([d.score for d in dets], dtype=float),
            np.array([d.class_id for d in dets]))


def _suppress(dets: list[Detection], overlap, effect, decays: bool) -> list[tuple[float, int]]:
    """The pick loop shared by every variant, as (final score, input index)
    pairs sorted by descending score, then input index.

    Each class's scores are held over its live set as it stood at the last
    block, in input order, so argmax breaks a score tie toward the lower
    input index; a dead box holds -1, or when the variant `decays`, any
    score under `SCORE_FLOOR`. When a pick has no row yet, the live set is
    compacted and one broadcast `overlap` call gives the rows of the
    top-`_BLOCK` live boxes by score against it: a stable sort of the
    negated scores, so ties at the cut go to the lower position, as argmax
    picks them. `effect` turns the block into score factors when the
    variant decays, else keep masks, and each pick applies its row with one
    array op. Every element is the same arithmetic on the same pair as a
    per-pick row, so the values are `==` whatever the block.
    """
    boxes, scores, labels = detection_arrays(dets)
    out: list[tuple[float, int]] = []
    for cid in dict.fromkeys(labels.tolist()):
        live = np.flatnonzero(labels == cid)
        s = scores[live]
        bar = 0.0  # every input score is live until the class's first pick
        row_of = np.full(live.size, -1)  # a position's block row, or -1
        k = s.argmax()
        while s[k] >= bar:
            if row_of[k] < 0:
                alive = s >= bar
                live, s = live[alive], s[alive]
                k = s.argmax()
                top = np.argsort(-s, kind="stable")[:_BLOCK]
                live_boxes = boxes[live]
                block = effect(overlap(live_boxes[top][:, None], live_boxes[None, :]))
                row_of = np.full(live.size, -1)
                row_of[top] = np.arange(top.size)
            out.append((float(s[k]), int(live[k])))
            s = s * block[row_of[k]] if decays else np.where(block[row_of[k]], s, -1.0)
            s[k] = -1.0
            bar = SCORE_FLOOR if decays else 0.0
            k = s.argmax()
    out.sort(key=lambda si: (-si[0], si[1]))
    return out


def greedy_nms(dets: list[Detection], iou_threshold: float = 0.5) -> list[Detection]:
    """Classic greedy NMS: per class, keep the highest-scored detection and
    discard all remaining ones overlapping it with IoU above the threshold.

    Output is sorted by descending score.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold outside [0, 1]: {iou_threshold}")
    kept = _suppress(dets, box_iou, lambda overlap: overlap <= iou_threshold, False)
    return [dets[i] for _, i in kept]


def diou_nms(dets: list[Detection], threshold: float = 0.45) -> list[Detection]:
    """Greedy NMS with DIoU as the suppression criterion.

    The center-distance penalty makes overlapping boxes with distant centers
    harder to suppress, which helps in crowded scenes. Since diou <= iou,
    the survivors are always a superset of greedy NMS at the same threshold.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold outside [-1, 1]: {threshold}")
    kept = _suppress(dets, box_diou, lambda overlap: overlap <= threshold, False)
    return [dets[i] for _, i in kept]


def soft_nms(dets: list[Detection], iou_threshold: float = 0.5,
             sigma: float = 0.5, mode: str = "linear") -> list[Detection]:
    """Soft NMS: decay overlapping same-class scores instead of discarding.

    linear mode rescores s' = s * (1 - iou) only when iou exceeds the
    threshold; gaussian mode rescores s' = s * exp(-iou^2 / sigma) for every
    pair. Detections whose decayed score falls below `SCORE_FLOOR` are
    dropped. Output carries the decayed scores, sorted descending; a
    survivor whose score did not decay is returned as its input detection.
    """
    if mode not in ("linear", "gaussian"):
        raise ValueError(f"unknown soft-nms mode: {mode!r}")
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold outside [0, 1]: {iou_threshold}")
    # a squared IoU over a subnormal sigma can overflow
    if mode == "gaussian" and not sys.float_info.min <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and at least {sys.float_info.min}: {sigma}")

    if mode == "linear":
        def factor(overlap):
            return np.where(overlap > iou_threshold, 1.0 - overlap, 1.0)
    else:
        def factor(overlap):
            return np.exp(-(overlap * overlap) / sigma)

    kept = _suppress(dets, box_iou, factor, True)
    return [dets[i] if s == dets[i].score else Detection(dets[i].box, s, dets[i].class_id)
            for s, i in kept]
