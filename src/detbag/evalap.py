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
from detbag.nms import Detection, detection_arrays

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
    """Mean over the 101-point recall grid of the max precision reached at
    recall >= r on the counted part of one ranked curve; 0 past its end."""
    cum_tp = np.cumsum(tp[counted])
    precision = cum_tp / np.arange(1, cum_tp.size + 1)  # cum_tp + cum_fp is 1..n
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    return float(envelope[np.searchsorted(cum_tp / n_pos, RECALL_GRID, side="left")].mean())


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

    image = {img: i for i, img in enumerate(truths)}
    labeled = [(image[img], box, cid) for img, boxes in truths.items() for box, cid in boxes]
    t_img = np.array([i for i, _, _ in labeled], dtype=int)
    tc = corners(box for _, box, _ in labeled)
    t_cls = np.array([cid for _, _, cid in labeled])
    submitted = [(image[img], d) for img in sorted(dets) for d in dets[img]]
    d_img = np.array([i for i, _ in submitted], dtype=int)
    dc, scores, d_cls = detection_arrays([d for _, d in submitted])
    t_in, d_in = _bucket_masks(tc), _bucket_masks(dc)
    ranked = np.argsort(-scores, kind="stable")  # (-score, submission) order

    classes = list(dict.fromkeys(t_cls.tolist() + d_cls.tolist()))
    # NaN where the bucket holds no truth of the class
    ap = np.full((len(_BUCKETS), len(_THRESHOLDS), len(classes)), np.nan)
    for c, cid in enumerate(classes):
        tk = np.flatnonzero(t_cls == cid)  # grouped by image: t_img never decreases
        n_pos = t_in[:, tk].sum(axis=1)
        if not n_pos.any():
            continue
        dk = ranked[d_cls[ranked] == cid]
        # the class's rank positions grouped by image, each image's in rank order
        by_img = np.argsort(d_img[dk], kind="stable")
        imgs, starts = np.unique(d_img[dk[by_img]], return_index=True)
        lo = np.searchsorted(t_img[tk], imgs, side="left")
        hi = np.searchsorted(t_img[tk], imgs, side="right")
        tp = np.zeros((len(_BUCKETS), len(_THRESHOLDS), dk.size), dtype=bool)
        counted = np.zeros_like(tp)
        for rows, first, last in zip(np.split(by_img, starts[1:]), lo, hi):
            di, ti = dk[rows], tk[first:last]
            tp[:, :, rows], counted[:, :, rows] = _match(
                box_iou(dc[di][:, None], tc[ti][None, :]), t_in[:, ti], d_in[:, di])
        for b in np.flatnonzero(n_pos):
            for t in range(len(_THRESHOLDS)):
                ap[b, t, c] = _curve_ap(tp[b, t], counted[b, t], n_pos[b])

    # each mean runs over a slice's classes with truth, threshold-major
    vals = [a[~np.isnan(a)] for a in (ap[0], ap[0, 0], ap[0, 5], ap[1], ap[2], ap[3])]
    return EvalResult(*(float(v.mean()) if v.size else None for v in vals))
