"""COCO-style average-precision evaluation.

AP is averaged over the IoU thresholds 0.50:0.05:0.95 with 101-point
interpolated precision, per class, over classes with at least one ground
truth. Area buckets follow the COCO convention: small < 32^2, medium in
[32^2, 96^2], large > 96^2 (box area in pixels). Within a bucket,
out-of-bucket truths are ignored, detections matched to them are dropped
from the precision-recall curve, and unmatched detections whose own area is
out of bucket are dropped as well rather than counted as false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from detbag.geometry import Box, box_area, box_iou, corners
from detbag.ingest import all_numbers, int_field
from detbag.nms import Detection

IOU_THRESHOLDS = tuple(np.round(np.linspace(0.5, 0.95, 10), 2))
RECALL_GRID = np.linspace(0.0, 1.0, 101)
SMALL_MAX_AREA = 32.0**2
MEDIUM_MAX_AREA = 96.0**2

_BUCKETS = ("all", "small", "medium", "large")
_THRESHOLDS = np.array(IOU_THRESHOLDS)


@dataclass(frozen=True)
class EvalResult:
    """The standard six-column metric row; bucket entries are None when the
    bucket holds no ground truth."""

    ap: float | None
    ap50: float | None
    ap75: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None

    def as_dict(self) -> dict[str, float | None]:
        return {"AP": self.ap, "AP50": self.ap50, "AP75": self.ap75,
                "AP_S": self.ap_small, "AP_M": self.ap_medium,
                "AP_L": self.ap_large}


def parse_coco_detections(records: Sequence[Mapping]) -> dict[int, list[Detection]]:
    """Group COCO results records (image_id, category_id, bbox [x,y,w,h],
    score) into per-image detection lists.

    Ids must be integers and bbox entries and scores numbers, by the rules of
    `detbag.ingest`; anything else is a ValueError naming the record.
    """
    out: dict[int, list[Detection]] = {}
    for i, rec in enumerate(records):
        try:
            img = int_field(rec, "image_id", "detection")
            cid = int_field(rec, "category_id", "detection")
            x, y, w, h = rec["bbox"]
            score = rec["score"]
            if not all_numbers(x, y, w, h, score):
                raise ValueError(f"bbox entries and score must be numbers: {rec}")
            x, y = float(x), float(y)
            det = Detection(Box(x, y, x + float(w), y + float(h)), float(score), cid)
            out.setdefault(img, []).append(det)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad detection record #{i}: {exc}") from exc
    return out


def _interpolated_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """Mean over the 101-point recall grid of the max precision achieved at
    recall >= r."""
    if recalls.size == 0:
        return 0.0
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    idx = np.searchsorted(recalls, RECALL_GRID, side="left")
    grid_prec = np.where(idx < len(envelope), envelope[np.minimum(idx, len(envelope) - 1)], 0.0)
    return float(grid_prec.mean())


def _bucket_masks(boxes: np.ndarray) -> np.ndarray:
    """(4, n) in-bucket flags of corner rows, in `_BUCKETS` order."""
    area = box_area(boxes)
    return np.stack([np.ones(area.shape, dtype=bool), area < SMALL_MAX_AREA,
                     (SMALL_MAX_AREA <= area) & (area <= MEDIUM_MAX_AREA),
                     area > MEDIUM_MAX_AREA])


def _match(ious: np.ndarray, truth_in: np.ndarray,
           det_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching of one image's detections, rows of the (n, m) IoU
    matrix in (-score, submission) order, for all buckets and thresholds
    at once. Returns (4, 10, n) flags: true positive, and counted on the
    precision-recall curve.

    A detection takes the free truth with the highest IoU at or above the
    threshold, the lower truth index on a tie; a truth inside the bucket
    beats an ignored one of any IoU. A match to an ignored truth is dropped
    from the curve, and so is an unmatched detection outside the bucket.
    """
    n, m = ious.shape
    # a truth's key is its rank in the detection's preference order, plus m
    # when the bucket ignores it; `none` marks that no truth is available
    rank = np.argsort(np.argsort(-ious, axis=1, kind="stable"), axis=1)
    ignored = m * ~truth_in[:, None, :]
    none = 2 * m
    grid = (len(_BUCKETS), len(_THRESHOLDS))
    best = np.full((n, *grid), none)
    free = np.ones((*grid, m), dtype=bool)
    row_start = m * np.arange(np.prod(grid)).reshape(grid)  # into free.reshape(-1)
    # a detection under the lowest threshold for every truth matches nothing
    for d in np.flatnonzero(ious.max(axis=1, initial=0.0) >= _THRESHOLDS[0]):
        available = (ious[d] >= _THRESHOLDS[:, None]) & free
        cand = np.where(available, rank[d] + ignored, none)
        best[d] = cand.min(axis=2)
        # the picked truth is used from now on, wherever one was picked
        free.reshape(-1)[row_start + cand.argmin(axis=2)] &= best[d] == none
    best = best.transpose(1, 2, 0)
    tp = best < m
    return tp, tp | ((best == none) & det_in[:, None, :])


def _curve_ap(tp: np.ndarray, counted: np.ndarray, n_pos: int) -> float:
    hits = tp[counted]
    if not hits.size:
        return 0.0
    cum_tp = np.cumsum(hits)
    cum_fp = np.cumsum(~hits)
    return _interpolated_ap(cum_tp / n_pos, cum_tp / (cum_tp + cum_fp))


def evaluate(dets: Mapping[int, Sequence[Detection]],
             truths: Mapping[int, Sequence[tuple[Box, int]]]) -> EvalResult:
    """Evaluate detections against ground truth.

    dets and truths map image id to that image's detections / labeled boxes;
    truths defines the image universe, and a detection under an unknown
    image id is an error. Classes with no ground truth are excluded from
    the class mean.
    """
    unknown = set(dets) - set(truths)
    if unknown:
        raise ValueError(f"detections reference unknown image ids: {sorted(unknown)}")

    # class -> image -> (truth boxes, det boxes, det scores, det submission order)
    classes: dict[int, dict[int, tuple[list, list, list, list]]] = {}
    for img, labeled in truths.items():
        for box, cid in labeled:
            classes.setdefault(cid, {}).setdefault(img, ([], [], [], []))[0].append(box)
    order = 0
    for img in sorted(dets):
        for det in dets[img]:
            group = classes.setdefault(det.class_id, {}).setdefault(img, ([], [], [], []))
            group[1].append(det.box)
            group[2].append(det.score)
            group[3].append(order)
            order += 1

    # ap[bucket][threshold] = list of per-class APs
    per_class: dict[str, dict[float, list[float]]] = {
        b: {t: [] for t in IOU_THRESHOLDS} for b in _BUCKETS}
    for groups in classes.values():
        n_pos = np.zeros(len(_BUCKETS), dtype=int)
        scores, orders, tps, counts = [], [], [], []
        for truth_boxes, det_boxes, det_scores, det_orders in groups.values():
            tc = corners(truth_boxes)
            truth_in = _bucket_masks(tc)
            n_pos += truth_in.sum(axis=1)
            if not det_boxes:
                continue
            # the image's slice of the class's global (-score, order) order
            s = np.array(det_scores)
            by_score = np.argsort(-s, kind="stable")
            dc = corners(det_boxes)[by_score]
            tp, counted = _match(box_iou(dc[:, None], tc[None, :]), truth_in,
                                 _bucket_masks(dc))
            scores.append(s[by_score])
            orders.append(np.array(det_orders)[by_score])
            tps.append(tp)
            counts.append(counted)
        if not n_pos.any():
            continue
        if scores:
            merged = np.lexsort((np.concatenate(orders), -np.concatenate(scores)))
            tp = np.concatenate(tps, axis=2)[:, :, merged]
            counted = np.concatenate(counts, axis=2)[:, :, merged]
        else:
            tp = counted = np.zeros((len(_BUCKETS), len(_THRESHOLDS), 0), dtype=bool)
        for b, bucket in enumerate(_BUCKETS):
            if n_pos[b] == 0:
                continue
            for t, thr in enumerate(IOU_THRESHOLDS):
                per_class[bucket][thr].append(
                    _curve_ap(tp[b, t], counted[b, t], int(n_pos[b])))

    def bucket_mean(bucket: str, thresholds=IOU_THRESHOLDS) -> float | None:
        vals = [v for t in thresholds for v in per_class[bucket][t]]
        return float(np.mean(vals)) if vals else None

    return EvalResult(
        ap=bucket_mean("all"),
        ap50=bucket_mean("all", (IOU_THRESHOLDS[0],)),
        ap75=bucket_mean("all", (IOU_THRESHOLDS[5],)),
        ap_small=bucket_mean("small"),
        ap_medium=bucket_mean("medium"),
        ap_large=bucket_mean("large"),
    )
