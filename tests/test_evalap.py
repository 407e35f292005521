import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detbag.evalap import (_BUCKETS, _KEY_BLOCK, IOU_THRESHOLDS, RECALL_GRID, EvalResult,
                           _bucket_masks, _curve_ap, _match, evaluate,
                           parse_coco_detections)
from detbag.geometry import Box, box_iou, corners
from detbag.nms import Detection


def plain_iou(a, b):
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def reference_evaluate(dets, truths):
    """Straight-line reference: explicit loops, no shared code with the
    library evaluator beyond the Box type."""
    thresholds = [0.5 + 0.05 * i for i in range(10)]
    buckets = {
        "all": lambda a: True,
        "small": lambda a: a < 32.0**2,
        "medium": lambda a: 32.0**2 <= a <= 96.0**2,
        "large": lambda a: a > 96.0**2,
    }
    classes = sorted({cid for labeled in truths.values() for _, cid in labeled}
                     | {d.class_id for ds in dets.values() for d in ds})

    # flatten detections with a global submission order for tie-breaking
    flat = []
    order = 0
    for img in sorted(dets):
        for d in dets[img]:
            flat.append((d.score, order, img, d))
            order += 1

    def class_ap(cid, thr, bucket_fn):
        gt = {img: [(box, bucket_fn(box.area)) for box, c in labeled if c == cid]
              for img, labeled in truths.items()}
        n_pos = sum(1 for boxes in gt.values() for _, inside in boxes if inside)
        if n_pos == 0:
            return None
        cls_dets = sorted([f for f in flat if f[3].class_id == cid],
                          key=lambda f: (-f[0], f[1]))
        used = {img: [False] * len(boxes) for img, boxes in gt.items()}
        tps, fps = [], []
        for _score, _order, img, det in cls_dets:
            boxes = gt.get(img, [])
            choice, choice_ignored = -1, -1
            for j, (tbox, inside) in enumerate(boxes):
                if used[img][j] or plain_iou(det.box, tbox) < thr:
                    continue
                if inside:
                    if choice < 0 or plain_iou(det.box, tbox) > plain_iou(det.box, boxes[choice][0]):
                        choice = j
                else:
                    if choice_ignored < 0 or plain_iou(det.box, tbox) > plain_iou(det.box, boxes[choice_ignored][0]):
                        choice_ignored = j
            if choice >= 0:
                used[img][choice] = True
                tps.append(1)
                fps.append(0)
            elif choice_ignored >= 0:
                used[img][choice_ignored] = True
            elif bucket_fn(det.box.area):
                tps.append(0)
                fps.append(1)
        if not tps:
            return 0.0
        total = 0.0
        for i_grid in range(101):
            r = i_grid / 100.0
            best_prec = 0.0
            tp_cum = fp_cum = 0
            for tp, fp in zip(tps, fps):
                tp_cum += tp
                fp_cum += fp
                if tp_cum / n_pos >= r:
                    best_prec = max(best_prec, tp_cum / (tp_cum + fp_cum))
            total += best_prec
        return total / 101.0

    def mean_ap(bucket, thr_subset):
        vals = [class_ap(c, t, buckets[bucket]) for c in classes
                for t in thr_subset]
        vals = [v for v in vals if v is not None]
        return sum(vals) / len(vals) if vals else None

    return {
        "AP": mean_ap("all", thresholds),
        "AP50": mean_ap("all", [0.5]),
        "AP75": mean_ap("all", [0.75]),
        "AP_S": mean_ap("small", thresholds),
        "AP_M": mean_ap("medium", thresholds),
        "AP_L": mean_ap("large", thresholds),
    }


def interpolated_ap(recalls, precisions):
    """Mean over the 101-point recall grid of the max precision achieved at
    recall >= r, on a non-empty curve."""
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    idx = np.searchsorted(recalls, RECALL_GRID, side="left")
    grid_prec = np.where(idx < len(envelope), envelope[np.minimum(idx, len(envelope) - 1)], 0.0)
    return float(grid_prec.mean())


def two_step_curve_ap(tp, counted, n_pos):
    """The curve AP before the sentinel envelope: cumulative false positives
    counted apart, the empty curve and the clamp past the curve's end
    handled on their own. Kept as the bit-exact oracle for `_curve_ap`."""
    hits = tp[counted]
    if not hits.size:
        return 0.0
    cum_tp = np.cumsum(hits)
    cum_fp = np.cumsum(~hits)
    return interpolated_ap(cum_tp / n_pos, cum_tp / (cum_tp + cum_fp))


def per_group_evaluate(dets, truths):
    """`evaluate` as it was before ranking detections once: a dict of lists
    per (class, image) group, each group matched on its own and each class
    merged back into (-score, submission) order with a lexsort. Kept as the
    bit-exact oracle for the one-pass `evaluate`."""
    unknown = set(dets) - set(truths)
    if unknown:
        raise ValueError(f"detections reference unknown image ids: {sorted(unknown)}")

    # class -> image -> (truth boxes, det boxes, det scores, det submission order)
    classes = {}
    for img, labeled in truths.items():
        for box, cid in labeled:
            classes.setdefault(cid, {}).setdefault(img, ([], [], [], []))[0].append(box)
    order = 0
    for img in sorted(dets):
        for d in dets[img]:
            group = classes.setdefault(d.class_id, {}).setdefault(img, ([], [], [], []))
            group[1].append(d.box)
            group[2].append(d.score)
            group[3].append(order)
            order += 1

    per_class = {b: {t: [] for t in IOU_THRESHOLDS} for b in _BUCKETS}
    for groups in classes.values():
        n_pos = np.zeros(len(_BUCKETS), dtype=int)
        scores, orders, tps, counts = [], [], [], []
        for truth_boxes, det_boxes, det_scores, det_orders in groups.values():
            tc = corners(truth_boxes)
            truth_in = _bucket_masks(tc)
            n_pos += truth_in.sum(axis=1)
            if not det_boxes:
                continue
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
            tp = counted = np.zeros((len(_BUCKETS), len(IOU_THRESHOLDS), 0), dtype=bool)
        for b, bucket in enumerate(_BUCKETS):
            if n_pos[b] == 0:
                continue
            for t, thr in enumerate(IOU_THRESHOLDS):
                per_class[bucket][thr].append(
                    two_step_curve_ap(tp[b, t], counted[b, t], int(n_pos[b])))

    def bucket_mean(bucket, thresholds=IOU_THRESHOLDS):
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


def per_detection_match(ious, truth_in, det_in):
    """`_match` as it was before the key table: one candidate array per
    detection, reduced with `min` and `argmin`, and a boolean `free` array.
    Kept as the bit-exact oracle for the key-table `_match`."""
    thresholds = np.array(IOU_THRESHOLDS)
    n, m = ious.shape
    rank = np.argsort(np.argsort(-ious, axis=1, kind="stable"), axis=1)
    ignored = m * ~truth_in[:, None, :]
    none = 2 * m
    grid = (len(_BUCKETS), len(thresholds))
    best = np.full((n, *grid), none)
    free = np.ones((*grid, m), dtype=bool)
    row_start = m * np.arange(np.prod(grid)).reshape(grid)
    for d in np.flatnonzero(ious.max(axis=1, initial=0.0) >= thresholds[0]):
        available = (ious[d] >= thresholds[:, None]) & free
        cand = np.where(available, rank[d] + ignored, none)
        best[d] = cand.min(axis=2)
        free.reshape(-1)[row_start + cand.argmin(axis=2)] &= best[d] == none
    best = best.transpose(1, 2, 0)
    tp = best < m
    return tp, tp | ((best == none) & det_in[:, None, :])


# IoUs at and next to the thresholds, so ties and exact threshold hits occur
IOU_PALETTE = [0.0, 0.25, np.nextafter(0.5, 0.0), 0.5, 0.6, 0.75, 0.8, 0.9,
               np.nextafter(0.95, 0.0), 0.95, np.nextafter(0.95, 1.0), 1.0]


@st.composite
def match_slices(draw):
    """An (n, m) IoU matrix with duplicated detection rows and truth
    columns, and bucket masks for the truths and detections."""
    n, m = draw(st.integers(0, 10)), draw(st.integers(0, 6))
    iou = st.one_of(st.sampled_from(IOU_PALETTE), st.floats(0.0, 1.0))
    ious = np.array(draw(st.lists(st.lists(iou, min_size=m, max_size=m),
                                  min_size=n, max_size=n)), dtype=float).reshape(n, m)
    if n > 1 and draw(st.booleans()):  # a duplicate detection
        ious[draw(st.integers(1, n - 1))] = ious[0]
    if m > 1 and draw(st.booleans()):  # a duplicate truth
        ious[:, draw(st.integers(1, m - 1))] = ious[:, 0]
    if draw(st.booleans()):  # no detection reaches the lowest threshold
        ious = np.minimum(ious, 0.45)
    masks = st.lists(st.booleans(), min_size=4 * m, max_size=4 * m)
    truth_in = np.array(draw(masks), dtype=bool).reshape(4, m)
    det_in = np.array(draw(st.lists(st.booleans(), min_size=4 * n, max_size=4 * n)),
                      dtype=bool).reshape(4, n)
    return ious, truth_in, det_in


def assert_match_equals_per_detection(ious, truth_in, det_in):
    tp, counted = _match(ious, truth_in, det_in)
    want_tp, want_counted = per_detection_match(ious, truth_in, det_in)
    assert tp.shape == counted.shape == want_tp.shape
    assert (tp == want_tp).all() and (counted == want_counted).all()


def det(x, y, w, h, score, cid=1):
    return Detection(Box(x, y, x + w, y + h), score, cid)


def label(x, y, w, h, cid=1):
    return (Box(x, y, x + w, y + h), cid)


class TestCanonicalCases:
    def test_perfect_detector(self):
        truths = {1: [label(10, 10, 50, 50)]}
        dets = {1: [det(10, 10, 50, 50, 0.9)]}
        r = evaluate(dets, truths)
        assert r.ap == r.ap50 == r.ap75 == 1.0
        assert r.ap_medium == 1.0  # area 2500 sits in the medium bucket
        assert r.ap_small is None and r.ap_large is None

    def test_false_positive_above_match(self):
        truths = {1: [label(10, 10, 50, 50)]}
        dets = {1: [det(200, 200, 50, 50, 0.95), det(10, 10, 50, 50, 0.9)]}
        r = evaluate(dets, truths)
        assert r.ap50 == pytest.approx(0.5)

    def test_no_detections(self):
        truths = {1: [label(10, 10, 50, 50)]}
        assert evaluate({}, truths).ap == 0.0

    def test_unknown_image_rejected(self):
        with pytest.raises(ValueError):
            evaluate({2: [det(0, 0, 1, 1, 0.5)]}, {1: []})


class TestAgainstReference:
    def synthetic(self, seed, n_images=3, n_truth=10, n_det=18, classes=2):
        rng = np.random.default_rng(seed)
        truths = {img: [] for img in range(1, n_images + 1)}
        for _ in range(n_truth):
            img = int(rng.integers(1, n_images + 1))
            x, y = rng.uniform(0, 200, 2)
            w, h = rng.uniform(5, 120, 2)
            truths[img].append(label(x, y, w, h, int(rng.integers(1, classes + 1))))
        dets = {img: [] for img in range(1, n_images + 1)}
        for img in truths:
            for box, cid in truths[img]:
                if rng.random() < 0.75:  # jittered true positive
                    dx, dy = rng.uniform(-6, 6, 2)
                    dets[img].append(Detection(
                        Box(box.x_min + dx, box.y_min + dy,
                            box.x_max + dx, box.y_max + dy),
                        float(rng.uniform(0.3, 1.0)), cid))
        for _ in range(n_det - sum(len(v) for v in dets.values())):
            img = int(rng.integers(1, n_images + 1))
            x, y = rng.uniform(0, 220, 2)
            w, h = rng.uniform(5, 100, 2)
            dets[img].append(det(x, y, w, h, float(rng.uniform(0, 1)),
                                 int(rng.integers(1, classes + 1))))
        return dets, truths

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_reference(self, seed):
        dets, truths = self.synthetic(seed)
        got = evaluate(dets, truths).as_dict()
        want = reference_evaluate(dets, truths)
        for key in want:
            if want[key] is None:
                assert got[key] is None, key
            else:
                assert got[key] == pytest.approx(want[key], abs=1e-9), key


class TestTieRules:
    def test_equal_iou_goes_to_lower_truth_index(self):
        t0, t1 = label(8, 0, 12, 10), label(10, 0, 12, 10)
        # iou(d, t0) == iou(d, t1) == 5/6; the second detection is t0 itself,
        # with iou 5/7 < 0.75 to t1, so it matches at 0.75 only if t0 is free
        dets = {1: [det(10, 0, 10, 10, 0.9), det(8, 0, 12, 10, 0.8)]}
        lower_first = evaluate(dets, {1: [t0, t1]})
        assert lower_first.ap75 == pytest.approx(51 / 101)
        assert evaluate(dets, {1: [t1, t0]}).ap75 == 1.0
        want = reference_evaluate(dets, {1: [t0, t1]})
        assert lower_first.as_dict() == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("dets,truths,ap50", [
        ({1: [det(300, 300, 40, 40, 0.5)], 2: [det(10, 10, 40, 40, 0.5)]},
         {1: [], 2: [label(10, 10, 40, 40)]}, 0.5),
        ({2: [det(10, 10, 40, 40, 0.5)], 1: [det(300, 300, 40, 40, 0.5)]},
         {2: [label(10, 10, 40, 40)], 1: []}, 0.5),
        ({1: [det(10, 10, 40, 40, 0.5)], 2: [det(300, 300, 40, 40, 0.5)]},
         {1: [label(10, 10, 40, 40)], 2: []}, 1.0),
        ({1: [det(300, 300, 40, 40, 0.5), det(10, 10, 40, 40, 0.5)]},
         {1: [label(10, 10, 40, 40)]}, 0.5),
    ], ids=["fp-image-first", "sorted-ids-not-dict-order", "tp-image-first",
            "same-image-list-order"])
    def test_equal_scores_follow_submission_order(self, dets, truths, ap50):
        assert evaluate(dets, truths).ap50 == ap50
        assert reference_evaluate(dets, truths)["AP50"] == pytest.approx(ap50)

    def test_in_bucket_truth_beats_ignored_truth_with_higher_iou(self):
        medium, large = label(5, 5, 90, 90), label(0, 0, 100, 100)
        d = det(2.5, 2.5, 95, 95, 0.9)  # iou 0.8975 with medium, 0.9025 with large
        r = evaluate({1: [d]}, {1: [medium, large]})
        # AP_M: a true positive at the 8 thresholds up to 0.85, where the
        # medium truth qualifies; matching the ignored large truth would drop it
        assert r.ap_medium == pytest.approx(0.8)
        # AP_L: the large truth is in the bucket at every threshold up to 0.9
        assert r.ap_large == pytest.approx(0.9)
        assert r.as_dict() == pytest.approx(
            reference_evaluate({1: [d]}, {1: [medium, large]}), abs=1e-12)

    def test_unmatched_out_of_bucket_detection_dropped(self):
        truths = {1: [label(10, 10, 50, 50)]}
        large_fp = det(300, 200, 120, 120, 0.9)
        medium_fp = det(300, 200, 50, 50, 0.9)
        match = det(10, 10, 50, 50, 0.5)
        assert evaluate({1: [large_fp, match]}, truths).ap_medium == 1.0
        assert evaluate({1: [medium_fp, match]}, truths).ap_medium == pytest.approx(0.5)


def crowded_set(seed, n_images=3, classes=3):
    """Pairs of truths overlapping by about half their width, each with 30
    jittered detections, a tenth of them relabeled to a random class."""
    rng = np.random.default_rng(seed)
    truths, dets = {}, {}
    for img in range(1, n_images + 1):
        truths[img], dets[img] = [], []
        for t in range(6):
            if t % 2:
                x0, y0, w0, h0 = prev
                x, y, w, h = x0 + 0.5 * w0, y0 + rng.uniform(-5, 5), w0, h0
            else:
                w, h = np.exp(rng.uniform(np.log(10), np.log(150), 2))
                x, y = rng.uniform(0, 400, 2)
            prev = (x, y, w, h)
            cid = 1 + t // 2 % classes
            truths[img].append(label(x, y, w, h, cid))
            for _ in range(30):
                dx, dy = rng.normal(0, 0.1, 2) * (w, h)
                sw, sh = np.exp(rng.normal(0, 0.1, 2))
                score = float(rng.choice([0.3, 0.6, rng.uniform(0, 1)]))
                dets[img].append(det(x + dx, y + dy, w * sw, h * sh, score,
                                     cid if rng.random() > 0.1
                                     else int(rng.integers(1, classes + 1))))
    return dets, truths


class TestCrowded:
    def test_matches_reference(self):
        dets, truths = crowded_set(61)
        got = evaluate(dets, truths).as_dict()
        want = reference_evaluate(dets, truths)
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-9), key


def _oracle_sets():
    synthetic = TestAgainstReference().synthetic
    many_dets, many_truths = synthetic(7, n_images=200, n_truth=1500, n_det=3000, classes=10)
    tied = {img: [Detection(d.box, round(d.score, 1), d.class_id) for d in ds]
            for img, ds in many_dets.items()}
    truths = {1: [label(10, 10, 40, 40, 1), label(60, 10, 20, 20, 1)],
              2: [label(10, 10, 40, 40, 2)], 3: [label(0, 0, 150, 150, 1)],
              4: [label(5, 5, 10, 10, 2)]}
    return {
        "crowded": crowded_set(61),
        "crowded-20-images": crowded_set(67, n_images=20, classes=5),
        "200-images-10-classes": (many_dets, many_truths),
        "200-images-10-classes-tied-scores": (tied, many_truths),
        # class 2 has detections in image 1, whose truths are all class 1
        "dets-without-truths-of-class": (
            {1: [det(10, 10, 40, 40, 0.9, 1), det(10, 10, 40, 40, 0.8, 2)],
             2: [det(11, 10, 40, 40, 0.7, 2)]}, truths),
        "class-with-dets-only": (
            {1: [det(10, 10, 40, 40, 0.9, 1), det(60, 10, 20, 20, 0.95, 9)],
             3: [det(0, 0, 140, 150, 0.4, 9), det(1, 0, 150, 150, 0.5, 1)]}, truths),
        "truths-without-dets": ({2: [det(10, 12, 40, 40, 0.6, 2)]}, truths),
        "equal-scores-across-images": (
            {img: [det(10, 10, 40, 40, 0.5, 1), det(10, 10, 40, 40, 0.5, 2),
                   det(0, 0, 150, 150, 0.5, 1), det(5, 5, 10, 10, 0.5, 2)]
             for img in (4, 3, 2, 1)}, truths),
        "no-dets": ({}, truths),
        "no-truths": ({1: [det(10, 10, 40, 40, 0.9)]}, {1: [], 2: []}),
    }


ORACLE_SETS = _oracle_sets()


class TestPerGroupOracle:
    @pytest.mark.parametrize("dets,truths", ORACLE_SETS.values(), ids=ORACLE_SETS.keys())
    def test_equals_per_group_evaluate(self, dets, truths):
        assert evaluate(dets, truths).as_dict() == per_group_evaluate(dets, truths).as_dict()


class TestKeyTableMatch:
    """The key-table `_match` gives the flags of the per-detection loop."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(match_slices())
    # the ignored truth has the higher IoU; both detections reach only it at 0.95
    @example((np.array([[0.9, 0.95], [0.9, 0.95]]),
              np.array([[1, 1], [1, 0], [1, 0], [0, 1]], dtype=bool),
              np.ones((4, 2), dtype=bool)))
    def test_equals_per_detection_match(self, case):
        assert_match_equals_per_detection(*case)

    @pytest.mark.parametrize("m", [1, 7, 70])
    def test_key_table_built_in_blocks(self, m):
        # more detections that reach a truth than one key table holds
        n = 3 * _KEY_BLOCK // (m * len(_BUCKETS) * len(IOU_THRESHOLDS)) + 5
        rng = np.random.default_rng(m)
        ious = rng.choice(IOU_PALETTE, (n, m))
        truth_in = rng.random((4, m)) < 0.7
        det_in = rng.random((4, n)) < 0.7
        assert_match_equals_per_detection(ious, truth_in, det_in)

    @pytest.mark.parametrize("dets,truths", ORACLE_SETS.values(), ids=ORACLE_SETS.keys())
    def test_evaluate_with_per_detection_match(self, monkeypatch, dets, truths):
        want = evaluate(dets, truths)
        monkeypatch.setattr("detbag.evalap._match", per_detection_match)
        assert evaluate(dets, truths) == want


def _curves():
    rng = np.random.default_rng(83)
    random = {f"random-{i}": (rng.random(n) < 0.4, rng.random(n) < 0.8,
                              int(rng.integers(1, n + 2)))
              for i, n in enumerate(rng.integers(1, 300, 40))}
    ones, zeros = np.ones(5, dtype=bool), np.zeros(5, dtype=bool)
    return {
        **random,
        "empty": (zeros[:0], zeros[:0], 3),
        "all-hits": (ones, ones, 5),
        "all-hits-fewer-than-truths": (ones, ones, 7),
        "no-hits": (zeros, ones, 4),
        "single-hit": (ones[:1], ones[:1], 1),
        "single-miss": (zeros[:1], ones[:1], 2),
        "none-counted": (ones, zeros, 5),
    }


CURVES = _curves()


@pytest.mark.parametrize("tp,counted,n_pos", CURVES.values(), ids=CURVES.keys())
def test_curve_ap_equals_two_step_curve_ap(tp, counted, n_pos):
    assert _curve_ap(tp, counted, n_pos) == two_step_curve_ap(tp, counted, n_pos)


class TestInvariants:
    def base_case(self):
        truths = {1: [label(0, 0, 40, 40), label(100, 100, 40, 40)],
                  2: [label(50, 50, 60, 60)]}
        dets = {1: [det(2, 1, 40, 40, 0.9), det(300, 300, 10, 10, 0.6)],
                2: [det(55, 52, 58, 60, 0.8)]}
        return dets, truths

    def test_duplicate_matched_detection_never_helps(self):
        dets, truths = self.base_case()
        base = evaluate(dets, truths)
        dets[1].append(det(2, 1, 40, 40, 0.85))  # duplicate of the matched one
        dup = evaluate(dets, truths)
        for key, value in dup.as_dict().items():
            if value is not None:
                assert value <= base.as_dict()[key] + 1e-12

    def test_monotone_score_transform_invariance(self):
        dets, truths = self.base_case()
        base = evaluate(dets, truths)
        squashed = {img: [Detection(d.box, d.score**3, d.class_id) for d in ds]
                    for img, ds in dets.items()}
        assert evaluate(squashed, truths) == base

    def test_threshold_ordering(self):
        rng_case = TestAgainstReference()
        for seed in range(6, 12):
            dets, truths = rng_case.synthetic(seed)
            r = evaluate(dets, truths)
            assert r.ap50 >= r.ap75
            assert r.ap50 >= r.ap

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           new_ids=st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3,
                            unique=True).map(sorted))
    def test_order_preserving_image_relabel(self, seed, new_ids):
        dets, truths = TestAgainstReference().synthetic(seed)
        relabel = dict(zip(sorted(truths), new_ids))
        moved_dets = {relabel[img]: ds for img, ds in dets.items()}
        moved_truths = {relabel[img]: ts for img, ts in truths.items()}
        assert evaluate(moved_dets, moved_truths) == evaluate(dets, truths)

    def test_result_fields_in_range(self):
        rng_case = TestAgainstReference()
        dets, truths = rng_case.synthetic(13)
        r = evaluate(dets, truths)
        assert isinstance(r, EvalResult)
        for v in r.as_dict().values():
            assert v is None or 0.0 <= v <= 1.0


class TestCocoRecords:
    def test_parse_groups_by_image(self):
        recs = [{"image_id": 1, "category_id": 3, "bbox": [10, 20, 30, 40],
                 "score": 0.7},
                {"image_id": 2, "category_id": 1, "bbox": [0, 0, 5, 5],
                 "score": 0.4}]
        out = parse_coco_detections(recs)
        assert out[1][0].box == Box(10, 20, 40, 60)
        assert out[1][0].class_id == 3
        assert out[2][0].score == 0.4

    def test_bad_record_named(self):
        with pytest.raises(ValueError, match="#1"):
            parse_coco_detections([
                {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1],
                 "score": 0.5},
                {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1],
                 "score": 0.5}])

    @pytest.mark.parametrize("field,value", [
        ("image_id", 1.7), ("category_id", 2.9), ("image_id", True),
        ("category_id", False), ("image_id", "3"), ("category_id", None),
        ("score", "0.5"), ("score", True), ("bbox", ["1", 0, 5, 5]),
        ("bbox", [0, True, 5, 5]), ("bbox", [0, 0, 5, None]),
    ], ids=["fractional-image_id", "fractional-category_id", "bool-image_id",
            "bool-category_id", "string-image_id", "null-category_id",
            "string-score", "bool-score", "string-in-bbox", "bool-in-bbox",
            "null-in-bbox"])
    def test_wrong_types_rejected(self, field, value):
        good = {"image_id": 1, "category_id": 2, "bbox": [0, 0, 5, 5], "score": 0.5}
        with pytest.raises(ValueError, match="^bad detection record #1: "):
            parse_coco_detections([good, dict(good, **{field: value})])

    def test_integral_float_ids_and_numpy_numbers_accepted(self):
        out = parse_coco_detections([
            {"image_id": 4.0, "category_id": 2.0,
             "bbox": [np.float64(1), 2, 3.5, 4], "score": np.float64(0.25)},
            {"image_id": np.int64(4), "category_id": np.int64(3),
             "bbox": [np.int64(1), 2, 3.5, 4], "score": 0.5}])
        first, second = out[4]
        assert [type(k) for k in out] == [int]
        assert type(first.class_id) is int and first.class_id == 2
        assert first.box == Box(1, 2, 4.5, 6) and first.score == 0.25
        assert type(second.class_id) is int and second.class_id == 3
        assert second.box == Box(1, 2, 4.5, 6) and second.score == 0.5
