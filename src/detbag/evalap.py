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

from detbag.geometry import Box, box_iou, corners
from detbag.nms import Detection

IOU_THRESHOLDS = tuple(np.round(np.linspace(0.5, 0.95, 10), 2))
RECALL_GRID = np.linspace(0.0, 1.0, 101)
SMALL_MAX_AREA = 32.0**2
MEDIUM_MAX_AREA = 96.0**2

_BUCKETS = ("all", "small", "medium", "large")


def _in_bucket(area: float, bucket: str) -> bool:
    if bucket == "all":
        return True
    if bucket == "small":
        return area < SMALL_MAX_AREA
    if bucket == "medium":
        return SMALL_MAX_AREA <= area <= MEDIUM_MAX_AREA
    return area > MEDIUM_MAX_AREA


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
    score) into per-image detection lists."""
    out: dict[int, list[Detection]] = {}
    for i, rec in enumerate(records):
        try:
            x, y, w, h = rec["bbox"]
            det = Detection(Box(float(x), float(y), float(x) + float(w),
                                float(y) + float(h)),
                            float(rec["score"]), int(rec["category_id"]))
            out.setdefault(int(rec["image_id"]), []).append(det)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad detection record #{i}: {exc}") from exc
    return out


def _iou_matrix(det_boxes: list[Box], truth_boxes: list[Box]) -> np.ndarray:
    return box_iou(corners(det_boxes)[:, None], corners(truth_boxes)[None, :])


def _interpolated_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """Mean over the 101-point recall grid of the max precision achieved at
    recall >= r."""
    if recalls.size == 0:
        return 0.0
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    idx = np.searchsorted(recalls, RECALL_GRID, side="left")
    grid_prec = np.where(idx < len(envelope), envelope[np.minimum(idx, len(envelope) - 1)], 0.0)
    return float(grid_prec.mean())


class _ClassEval:
    """Per-class scratch: detections sorted globally by score, per-image
    truth lists, and per-image IoU matrices computed once."""

    def __init__(self):
        self.dets: list[tuple[float, int, int, int]] = []  # (score, order, image, det-slot)
        self.truths: dict[int, list[Box]] = {}
        self.det_boxes: dict[int, list[Box]] = {}
        self.ious: dict[int, np.ndarray] = {}


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

    classes: dict[int, _ClassEval] = {}
    for img, labeled in truths.items():
        for box, cid in labeled:
            ce = classes.setdefault(cid, _ClassEval())
            ce.truths.setdefault(img, []).append(box)
    order = 0
    for img in sorted(dets):
        for det in dets[img]:
            ce = classes.setdefault(det.class_id, _ClassEval())
            slots = ce.det_boxes.setdefault(img, [])
            ce.dets.append((det.score, order, img, len(slots)))
            slots.append(det.box)
            order += 1
    for ce in classes.values():
        ce.dets.sort(key=lambda rec: (-rec[0], rec[1]))
        for img, boxes in ce.det_boxes.items():
            ce.ious[img] = _iou_matrix(boxes, ce.truths.get(img, []))

    # ap[bucket][threshold] = list of per-class APs
    per_class: dict[str, dict[float, list[float]]] = {
        b: {t: [] for t in IOU_THRESHOLDS} for b in _BUCKETS}
    for ce in classes.values():
        for bucket in _BUCKETS:
            truth_ignore = {
                img: np.array([not _in_bucket(b.area, bucket) for b in boxes])
                for img, boxes in ce.truths.items()}
            n_pos = sum(int((~ig).sum()) for ig in truth_ignore.values())
            if n_pos == 0:
                continue
            for thr in IOU_THRESHOLDS:
                ap = _class_ap(ce, bucket, thr, truth_ignore, n_pos)
                per_class[bucket][thr].append(ap)

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


def _class_ap(ce: _ClassEval, bucket: str, thr: float,
              truth_ignore: dict[int, np.ndarray], n_pos: int) -> float:
    matched: dict[int, np.ndarray] = {
        img: np.zeros(len(boxes), dtype=bool) for img, boxes in ce.truths.items()}
    tp, fp = [], []
    for _score, _order, img, slot in ce.dets:
        truth_boxes = ce.truths.get(img, [])
        row = ce.ious[img][slot] if truth_boxes else np.zeros(0)
        ignore = truth_ignore.get(img)
        used = matched.get(img)
        best, best_ignored = -1, -1
        for j in range(len(truth_boxes)):
            if row[j] < thr or used[j]:
                continue
            if ignore[j]:
                if best_ignored < 0 or row[j] > row[best_ignored]:
                    best_ignored = j
            elif best < 0 or row[j] > row[best]:
                best = j
        if best >= 0:
            used[best] = True
            tp.append(1.0)
            fp.append(0.0)
        elif best_ignored >= 0:
            used[best_ignored] = True  # ignored match: drop from the curve
        else:
            det_box = ce.det_boxes[img][slot]
            if _in_bucket(det_box.area, bucket):
                tp.append(0.0)
                fp.append(1.0)
    if not tp:
        return 0.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recalls = cum_tp / n_pos
    precisions = cum_tp / (cum_tp + cum_fp)
    return _interpolated_ap(recalls, precisions)
