"""Independent references the benchmark checks detbag's outputs against.

Every reference here is straight-line code that shares nothing with the
library beyond its value types, and every check raises `CheckFailed`
naming what differed. Checks run outside the timed phase.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np

from detbag.geometry import diou

IOU_THRESHOLDS = [round(0.5 + 0.05 * i, 2) for i in range(10)]
# COCO's recall grid is np.linspace(0, 1, 101); some of its points sit one
# ulp away from g / 100, which decides ties when recall lands on them
RECALL_GRID = np.linspace(0.0, 1.0, 101).tolist()
AP_TOLERANCE = 1e-9  # the acceptance suite's tolerance for the AP row


class CheckFailed(Exception):
    """An output differs from its reference; `item` names where."""

    def __init__(self, message: str, item=None):
        super().__init__(message)
        self.item = item


def _corners(box) -> tuple[float, float, float, float]:
    return box.x_min, box.y_min, box.x_max, box.y_max


def plain_iou(a, b) -> float:
    ax1, ay1, ax2, ay2 = _corners(a)
    bx1, by1, bx2, by2 = _corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0.0 else 0.0


# --- decode -----------------------------------------------------------------

def closed_form_decode(head: np.ndarray, stride: float, anchors, s: float):
    """Decode an (A, 5 + C, H, W) logit tensor with the published equation
    b_x = (s * sigmoid(t_x) - (s - 1) / 2 + c_x) * stride, b_w = a_w e^t_w.
    Returns (A, 4 + 1 + C, H, W): x_c, y_c, w, h, objectness, class probs."""
    sig = 1.0 / (1.0 + np.exp(-head))
    n_a, _, h, w = head.shape
    c_y, c_x = np.mgrid[0:h, 0:w]
    out = np.empty_like(head)
    for a in range(n_a):
        out[a, 0] = (s * sig[a, 0] - (s - 1.0) / 2.0 + c_x) * stride
        out[a, 1] = (s * sig[a, 1] - (s - 1.0) / 2.0 + c_y) * stride
        out[a, 2] = anchors[a][0] * np.exp(head[a, 2])
        out[a, 3] = anchors[a][1] * np.exp(head[a, 3])
    out[:, 4:] = sig[:, 4:]
    return out


def check_decoded(want: np.ndarray, got: np.ndarray, tol: float = 1e-12) -> None:
    """got and want are (cells, 5 + C) rows; tolerance is relative to
    max(1, |want|), which is absolute for probabilities and unit pixels."""
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if not err.size or not np.isfinite(got).all():
        raise CheckFailed("decoded output is empty or non-finite")
    worst = int(err.argmax())
    if err.flat[worst] > tol:
        cell, col = divmod(worst, want.shape[1])
        raise CheckFailed(f"decode row {cell} column {col}: got "
                          f"{got.flat[worst]!r}, closed form {want.flat[worst]!r}")


# --- suppression ------------------------------------------------------------

def _class_groups(dets) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(dets):
        groups.setdefault(d.class_id, []).append(i)
    for idxs in groups.values():
        idxs.sort(key=lambda i: (-dets[i].score, i))
    return groups


def reference_diou_nms(dets, threshold: float):
    """Quadratic greedy suppression under geometry.diou."""
    keep = []
    for pool in _class_groups(dets).values():
        while pool:
            top = pool.pop(0)
            keep.append(top)
            pool = [i for i in pool if diou(dets[top].box, dets[i].box) <= threshold]
    keep.sort(key=lambda i: (-dets[i].score, i))
    return [dets[i] for i in keep]


def reference_soft_nms(dets, iou_threshold: float, score_floor: float = 0.001):
    """Linear soft-NMS by explicit loops: pick the live max (ties to the
    lower input index), decay same-class overlaps above the threshold by
    (1 - iou), drop scores under the floor. Returns [(score, index)]."""
    out = []
    for idxs in _class_groups(dets).values():
        live = {i: dets[i].score for i in idxs}
        while live:
            top = min(live, key=lambda i: (-live[i], i))
            out.append((live.pop(top), top))
            for i in sorted(live):
                o = plain_iou(dets[top].box, dets[i].box)
                if o > iou_threshold:
                    live[i] *= 1.0 - o
                if live[i] < score_floor:
                    del live[i]
    out.sort(key=lambda si: (-si[0], si[1]))
    return out


def check_survivors(got, want, what: str) -> None:
    """Survivor lists must agree in order, box, class and score."""
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} survivors, reference {len(want)}")
    for k, (g, w) in enumerate(zip(got, want)):
        if g.box != w.box or g.class_id != w.class_id or abs(g.score - w.score) > 1e-12:
            raise CheckFailed(f"{what}: survivor {k} is {g}, reference {w}")


def check_soft_nms(dets, got, iou_threshold: float) -> None:
    want = [replace(dets[i], score=s) for s, i in reference_soft_nms(dets, iou_threshold)]
    check_survivors(got, want, "soft-NMS")


# --- COCO AP ----------------------------------------------------------------

_BUCKETS = {
    "all": lambda a: True,
    "small": lambda a: a < 32.0**2,
    "medium": lambda a: 32.0**2 <= a <= 96.0**2,
    "large": lambda a: a > 96.0**2,
}


def _area(box) -> float:
    x1, y1, x2, y2 = _corners(box)
    return (x2 - x1) * (y2 - y1)


def reference_evaluate(dets, truths) -> dict:
    """Straight-line COCO-style AP row (101-point interpolation, greedy
    matching in global score order, out-of-bucket truths ignored)."""
    classes = sorted({c for labeled in truths.values() for _, c in labeled}
                     | {d.class_id for ds in dets.values() for d in ds})
    flat = []  # (score, submission order, image, det, ious vs same-class truths)
    for img in sorted(dets):
        for d in dets[img]:
            gt = [b for b, c in truths.get(img, []) if c == d.class_id]
            flat.append((d.score, len(flat), img, d, [plain_iou(d.box, b) for b in gt]))
    flat.sort(key=lambda f: (-f[0], f[1]))

    def class_ap(cid, thr, inside):
        gt = {img: [inside(_area(b)) for b, c in labeled if c == cid]
              for img, labeled in truths.items()}
        n_pos = sum(flag for flags in gt.values() for flag in flags)
        if n_pos == 0:
            return None
        used = {img: [False] * len(flags) for img, flags in gt.items()}
        tps = []
        for _score, _order, img, d, ious in flat:
            if d.class_id != cid:
                continue
            best, best_ignored = -1, -1
            for j, o in enumerate(ious):
                if used[img][j] or o < thr:
                    continue
                if gt[img][j]:
                    if best < 0 or o > ious[best]:
                        best = j
                elif best_ignored < 0 or o > ious[best_ignored]:
                    best_ignored = j
            if best >= 0:
                used[img][best] = True
                tps.append(1)
            elif best_ignored >= 0:
                used[img][best_ignored] = True
            elif inside(_area(d.box)):
                tps.append(0)
        if not tps:
            return 0.0
        recall, precision = [], []
        tp = 0
        for k, hit in enumerate(tps, start=1):
            tp += hit
            recall.append(tp / n_pos)
            precision.append(tp / k)
        for k in range(len(precision) - 2, -1, -1):
            precision[k] = max(precision[k], precision[k + 1])
        total, k = 0.0, 0
        for r in RECALL_GRID:
            while k < len(recall) and recall[k] < r:
                k += 1
            total += precision[k] if k < len(recall) else 0.0
        return total / 101.0

    def mean_ap(bucket, thresholds):
        vals = [class_ap(c, t, _BUCKETS[bucket]) for c in classes for t in thresholds]
        vals = [v for v in vals if v is not None]
        return sum(vals) / len(vals) if vals else None

    return {"AP": mean_ap("all", IOU_THRESHOLDS),
            "AP50": mean_ap("all", [0.5]),
            "AP75": mean_ap("all", [0.75]),
            "AP_S": mean_ap("small", IOU_THRESHOLDS),
            "AP_M": mean_ap("medium", IOU_THRESHOLDS),
            "AP_L": mean_ap("large", IOU_THRESHOLDS)}


def check_ap_row(got: dict, want: dict, tol: float = AP_TOLERANCE) -> None:
    for key, w in want.items():
        g = got.get(key)
        if (g is None) != (w is None) or (w is not None and abs(g - w) > tol):
            raise CheckFailed(f"AP row {key}: got {g!r}, reference {w!r}")


# --- box loss ---------------------------------------------------------------

def ciou_loss_value(p, t, alpha=None) -> float:
    """1 - CIoU of center-form boxes; alpha may be pinned to a constant."""
    px, py, pw, ph = p
    tx, ty, tw, th = t
    iw = min(px + pw / 2, tx + tw / 2) - max(px - pw / 2, tx - tw / 2)
    ih = min(py + ph / 2, ty + th / 2) - max(py - ph / 2, ty - th / 2)
    inter = max(iw, 0.0) * max(ih, 0.0)
    iou = inter / (pw * ph + tw * th - inter)
    ew = max(px + pw / 2, tx + tw / 2) - min(px - pw / 2, tx - tw / 2)
    eh = max(py + ph / 2, ty + th / 2) - min(py - ph / 2, ty - th / 2)
    d = iou - ((px - tx) ** 2 + (py - ty) ** 2) / (ew * ew + eh * eh)
    v = 4.0 / math.pi**2 * (math.atan(tw / th) - math.atan(pw / ph)) ** 2
    if alpha is None:
        alpha = v / (1.0 - iou + v) if v > 0.0 else 0.0
    return 1.0 - (d - alpha * v)


def fd_ciou_grad(p, t, h: float = 1e-5) -> np.ndarray:
    """Central differences of the CIoU loss with alpha pinned at p, which
    matches the library's constant treatment of alpha."""
    px, py, pw, ph = p
    tx, ty, tw, th = t
    iw = min(px + pw / 2, tx + tw / 2) - max(px - pw / 2, tx - tw / 2)
    ih = min(py + ph / 2, ty + th / 2) - max(py - ph / 2, ty - th / 2)
    inter = max(iw, 0.0) * max(ih, 0.0)
    iou = inter / (pw * ph + tw * th - inter)
    v = 4.0 / math.pi**2 * (math.atan(tw / th) - math.atan(pw / ph)) ** 2
    alpha = v / (1.0 - iou + v) if v > 0.0 else 0.0
    g = np.zeros(4)
    for i in range(4):
        hi, lo = list(p), list(p)
        hi[i] += h
        lo[i] -= h
        g[i] = (ciou_loss_value(hi, t, alpha) - ciou_loss_value(lo, t, alpha)) / (2 * h)
    return g


def check_box_loss(pred, truth, value: float, grad, tol: float = 1e-4) -> None:
    """Loss value against the transcription, gradient against central
    differences: max |g - fd| / max(1, max |fd|) < tol."""
    want = ciou_loss_value(pred, truth)
    if abs(value - want) > 1e-9:
        raise CheckFailed(f"box_loss value {value!r}, reference {want!r}")
    fd = fd_ciou_grad(pred, truth)
    err = np.max(np.abs(np.asarray(grad) - fd)) / max(1.0, np.max(np.abs(fd)))
    if not err < tol:
        raise CheckFailed(f"box_loss gradient {list(grad)} vs finite differences "
                          f"{list(fd)} (rel. err {err:.3g})")


# --- training statistics ----------------------------------------------------

def check_cmbn(minibatches, mean, var, tol: float = 1e-10) -> None:
    """Statistics at the last mini-batch equal whole-batch numpy values."""
    whole = np.concatenate([np.asarray(m, dtype=float) for m in minibatches])
    dm = np.abs(mean - whole.mean(axis=0)).max()
    dv = np.abs(var - whole.var(axis=0)).max()
    if not (dm < tol and dv < tol):
        raise CheckFailed(f"CmBN statistics off whole-batch numpy by "
                          f"mean {dm:.3g}, var {dv:.3g}")


def reference_anchor_recall(shapes, anchors, threshold: float) -> float:
    """Share of (w, h) shapes whose best concentric IoU with an anchor
    exceeds the threshold."""
    w, h = shapes[:, 0], shapes[:, 1]
    best = np.zeros(len(shapes))
    for aw, ah in anchors:
        inter = np.minimum(w, aw) * np.minimum(h, ah)
        best = np.maximum(best, inter / (w * h + aw * ah - inter))
    return float((best > threshold).mean())


def check_recall(got: float, shapes, anchors, threshold: float) -> None:
    want = reference_anchor_recall(shapes, anchors, threshold)
    if abs(got - want) > 1e-12:
        raise CheckFailed(f"GA anchor recall {got!r}, recomputed {want!r}")


# --- augmentation -----------------------------------------------------------

def sample_digest(sample) -> str:
    """SHA-256 over the image bytes, boxes, classes and weights."""
    h = hashlib.sha256(np.ascontiguousarray(sample.image).tobytes())
    h.update(repr([(_corners(b), c) for b, c in sample.labels]).encode())
    h.update(repr(sample.weights).encode())
    return h.hexdigest()


def check_augmented(sample, reference_digest: str) -> None:
    """Boxes inside the canvas, pixels in [0, 1], bytes equal to a second
    pass with the same seed."""
    hgt, wid = sample.image.shape[:2]
    for b, _ in sample.labels:
        if not (0.0 <= b.x_min <= b.x_max <= wid and 0.0 <= b.y_min <= b.y_max <= hgt):
            raise CheckFailed(f"box {b} outside the {wid}x{hgt} canvas")
    if not (np.isfinite(sample.image).all() and sample.image.min() >= 0.0
            and sample.image.max() <= 1.0):
        raise CheckFailed("pixel outside [0, 1]")
    if sample_digest(sample) != reference_digest:
        raise CheckFailed("output bytes differ from a second pass with the same seed")
