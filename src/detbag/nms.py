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


def _suppress(dets: list[Detection], overlap, rule) -> list[tuple[float, int]]:
    """The pick loop shared by every variant, as (final score, input index)
    pairs sorted by descending score, then input index.

    Each class's live set stays in input order, so argmax breaks a score tie
    toward the lower input index. After each pick, `rule(overlap, scores)`
    returns the live-set mask and the (possibly decayed) live scores.

    Overlap rows are computed in blocks: when a pick has no row yet, one
    broadcast `overlap` call gives the rows of the top-`_BLOCK` live boxes
    by current score (ties to the lower position, as argmax picks them)
    against the whole live set, and later picks in the block read their
    row from it. Each element is the same kernel arithmetic on the same
    pair as a per-pick row, so the values are `==` and only the number of
    kernel calls depends on the block.
    """
    if not dets:
        return []
    boxes, scores, labels = detection_arrays(dets)
    out: list[tuple[float, int]] = []
    for cid in dict.fromkeys(labels.tolist()):
        # live: the class's live set, as input indices, when the last block
        # was computed; cols: each current live box's position in it, which
        # is also its block column; row_of: a position's block row, or -1
        live = np.flatnonzero(labels == cid)
        live_scores = scores[live]
        cols = np.arange(live.size)
        row_of = np.full(live.size, -1)
        while cols.size > 1:
            k = live_scores.argmax()
            if row_of[cols[k]] < 0:
                live, cols = live[cols], np.arange(cols.size)
                top = cols
                if cols.size > _BLOCK:  # ties at the cut go to lower positions
                    cut = np.partition(live_scores, -_BLOCK)[-_BLOCK]
                    top = np.concatenate([np.flatnonzero(live_scores > cut),
                                          np.flatnonzero(live_scores == cut)])[:_BLOCK]
                live_boxes = boxes[live]
                block = overlap(live_boxes[top][:, None], live_boxes[None, :])
                row_of = np.full(cols.size, -1)
                row_of[top] = np.arange(top.size)
            c = cols[k]
            out.append((float(live_scores[k]), int(live[c])))
            keep, live_scores = rule(block[row_of[c]][cols], live_scores)
            keep[k] = False
            cols, live_scores = cols[keep], live_scores[keep]
        if cols.size:  # a lone box is kept without an overlap row
            out.append((float(live_scores[0]), int(live[cols[0]])))
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
             sigma: float = 0.5, mode: str = "linear") -> list[Detection]:
    """Soft NMS: decay overlapping same-class scores instead of discarding.

    linear mode rescores s' = s * (1 - iou) only when iou exceeds the
    threshold; gaussian mode rescores s' = s * exp(-iou^2 / sigma) for every
    pair. Detections whose decayed score falls below `SCORE_FLOOR` are
    dropped. Output carries the decayed scores, sorted descending.
    """
    if mode not in ("linear", "gaussian"):
        raise ValueError(f"unknown soft-nms mode: {mode!r}")
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold outside [0, 1]: {iou_threshold}")
    # a squared IoU over a subnormal sigma can overflow
    if mode == "gaussian" and not sys.float_info.min <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and at least {sys.float_info.min}: {sigma}")

    if mode == "linear":
        def decay(overlap, scores):
            scores = scores * np.where(overlap > iou_threshold, 1.0 - overlap, 1.0)
            return scores >= SCORE_FLOOR, scores
    else:
        def decay(overlap, scores):
            scores = scores * np.exp(-(overlap * overlap) / sigma)
            return scores >= SCORE_FLOOR, scores

    kept = _suppress(dets, box_iou, decay)
    return [Detection(dets[i].box, s, dets[i].class_id) for s, i in kept]
