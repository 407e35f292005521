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


def _class_order(dets: list[Detection]) -> dict[int, list[int]]:
    """Input indices per class, sorted by descending score then input index."""
    by_class: dict[int, list[int]] = {}
    for i, d in enumerate(dets):
        by_class.setdefault(d.class_id, []).append(i)
    for idxs in by_class.values():
        idxs.sort(key=lambda i: (-dets[i].score, i))
    return by_class


def _greedy(dets: list[Detection], overlap_row, threshold: float) -> list[Detection]:
    boxes = corners(d.box for d in dets)
    kept: list[int] = []
    for idxs in _class_order(dets).values():
        order = np.array(idxs, dtype=int)
        while order.size:
            top = order[0]
            kept.append(int(top))
            rest = order[1:]
            if not rest.size:
                break
            overlap = overlap_row(boxes[top], boxes[rest])
            order = rest[overlap <= threshold]
    kept.sort(key=lambda i: (-dets[i].score, i))
    return [dets[i] for i in kept]


def greedy_nms(dets: list[Detection], iou_threshold: float = 0.5) -> list[Detection]:
    """Classic greedy NMS: per class, keep the highest-scored detection and
    discard all remaining ones overlapping it with IoU above the threshold.

    Output is sorted by descending score.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold outside [0, 1]: {iou_threshold}")
    if not dets:
        return []
    return _greedy(dets, box_iou, iou_threshold)


def diou_nms(dets: list[Detection], threshold: float = 0.45) -> list[Detection]:
    """Greedy NMS with DIoU as the suppression criterion.

    The center-distance penalty makes overlapping boxes with distant centers
    harder to suppress, which helps in crowded scenes. Since diou <= iou,
    the survivors are always a superset of greedy NMS at the same threshold.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold outside [-1, 1]: {threshold}")
    if not dets:
        return []
    return _greedy(dets, box_diou, threshold)


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
    if not dets:
        return []

    boxes = corners(d.box for d in dets)
    scores = np.array([d.score for d in dets], dtype=float)
    labels = np.array([d.class_id for d in dets])
    out: list[tuple[float, int]] = []  # (final score, input index)
    for cid in dict.fromkeys(labels.tolist()):
        # the live set stays in input-index order, so argmax breaks score
        # ties toward the lower input index
        live = np.flatnonzero(labels == cid)
        live_boxes, live_scores = boxes[live], scores[live]
        while live.size:
            k = live_scores.argmax()
            out.append((float(live_scores[k]), int(live[k])))
            overlap = box_iou(live_boxes[k], live_boxes)
            if mode == "linear":
                decay = np.where(overlap > iou_threshold, 1.0 - overlap, 1.0)
            else:
                decay = np.exp(-(overlap * overlap) / sigma)
            live_scores = live_scores * decay
            keep = live_scores >= score_floor
            keep[k] = False
            live, live_boxes, live_scores = live[keep], live_boxes[keep], live_scores[keep]
    out.sort(key=lambda si: (-si[0], si[1]))
    return [Detection(dets[i].box, s, dets[i].class_id) for s, i in out]
