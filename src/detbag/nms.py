"""Non-maximum suppression variants: greedy, soft (linear/gaussian), DIoU.

Suppression is strictly class-wise; detections of distinct classes never
affect one another. Score ties are broken by lower input index, so results
are deterministic across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from detbag.geometry import Box, box_diou, box_iou, corners

DEFAULT_SCORE_FLOOR = 0.001


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


def _suppress(dets: list[Detection], overlap_row, rule) -> list[tuple[float, int]]:
    """The pick loop shared by every variant, as (final score, input index)
    pairs sorted by descending score, then input index.

    Each class's live set stays in input order, so argmax breaks a score tie
    toward the lower input index. After each pick, `rule(overlap, scores)`
    returns the live-set mask and the (possibly decayed) live scores.
    """
    if not dets:
        return []
    boxes = corners(d.box for d in dets)
    scores = np.array([d.score for d in dets], dtype=float)
    labels = np.array([d.class_id for d in dets])
    out: list[tuple[float, int]] = []
    for cid in dict.fromkeys(labels.tolist()):
        live = np.flatnonzero(labels == cid)
        live_boxes, live_scores = boxes[live], scores[live]
        while live.size > 1:
            k = live_scores.argmax()
            out.append((float(live_scores[k]), int(live[k])))
            keep, live_scores = rule(overlap_row(live_boxes[k], live_boxes), live_scores)
            keep[k] = False
            live, live_boxes, live_scores = live[keep], live_boxes[keep], live_scores[keep]
        if live.size:  # a lone box is kept without an overlap row
            out.append((float(live_scores[0]), int(live[0])))
    out.sort(key=lambda si: (-si[0], si[1]))
    return out


def _keep_below(threshold: float):
    """The greedy rule: a box stays live while its overlap with the pick is
    at most the threshold; scores are untouched."""
    return lambda overlap, scores: (overlap <= threshold, scores)


def greedy_nms(dets: list[Detection], iou_threshold: float = 0.5) -> list[Detection]:
    """Classic greedy NMS: per class, keep the highest-scored detection and
    discard all remaining ones overlapping it with IoU above the threshold.

    Output is sorted by descending score.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold outside [0, 1]: {iou_threshold}")
    kept = _suppress(dets, box_iou, _keep_below(iou_threshold))
    return [dets[i] for _, i in kept]


def diou_nms(dets: list[Detection], threshold: float = 0.45) -> list[Detection]:
    """Greedy NMS with DIoU as the suppression criterion.

    The center-distance penalty makes overlapping boxes with distant centers
    harder to suppress, which helps in crowded scenes. Since diou <= iou,
    the survivors are always a superset of greedy NMS at the same threshold.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold outside [-1, 1]: {threshold}")
    kept = _suppress(dets, box_diou, _keep_below(threshold))
    return [dets[i] for _, i in kept]


def soft_nms(dets: list[Detection], iou_threshold: float = 0.5,
             sigma: float = 0.5, score_floor: float = DEFAULT_SCORE_FLOOR,
             mode: str = "linear") -> list[Detection]:
    """Soft NMS: decay overlapping same-class scores instead of discarding.

    linear mode rescores s' = s * (1 - iou) only when iou exceeds the
    threshold; gaussian mode rescores s' = s * exp(-iou^2 / sigma) for every
    pair. Detections whose decayed score falls below score_floor are
    dropped. Output carries the decayed scores, sorted descending.
    """
    if mode not in ("linear", "gaussian"):
        raise ValueError(f"unknown soft-nms mode: {mode!r}")
    if mode == "gaussian" and sigma <= 0.0:
        raise ValueError(f"sigma must be positive: {sigma}")
    if not 0.0 <= score_floor < 1.0:
        raise ValueError(f"score_floor outside [0, 1): {score_floor}")

    if mode == "linear":
        def decay(overlap, scores):
            scores = scores * np.where(overlap > iou_threshold, 1.0 - overlap, 1.0)
            return scores >= score_floor, scores
    else:
        def decay(overlap, scores):
            scores = scores * np.exp(-(overlap * overlap) / sigma)
            return scores >= score_floor, scores

    kept = _suppress(dets, box_iou, decay)
    return [Detection(dets[i].box, s, dets[i].class_id) for s, i in kept]
