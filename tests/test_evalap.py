import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detbag.evalap import EvalResult, evaluate, parse_coco_detections
from detbag.geometry import Box
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


class TestCrowded:
    def test_matches_reference(self):
        rng = np.random.default_rng(61)
        truths, dets = {}, {}
        for img in (1, 2, 3):
            truths[img], dets[img] = [], []
            for t in range(6):
                # pairs of truths overlapping by about half their width
                if t % 2:
                    x0, y0, w0, h0 = prev
                    x, y, w, h = x0 + 0.5 * w0, y0 + rng.uniform(-5, 5), w0, h0
                else:
                    w, h = np.exp(rng.uniform(np.log(10), np.log(150), 2))
                    x, y = rng.uniform(0, 400, 2)
                prev = (x, y, w, h)
                cid = 1 + t // 2 % 3
                truths[img].append(label(x, y, w, h, cid))
                for _ in range(30):
                    dx, dy = rng.normal(0, 0.1, 2) * (w, h)
                    sw, sh = np.exp(rng.normal(0, 0.1, 2))
                    score = float(rng.choice([0.3, 0.6, rng.uniform(0, 1)]))
                    dets[img].append(det(x + dx, y + dy, w * sw, h * sh, score,
                                         cid if rng.random() > 0.1 else int(rng.integers(1, 4))))
        got = evaluate(dets, truths).as_dict()
        want = reference_evaluate(dets, truths)
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-9), key


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

    @settings(max_examples=30, deadline=None)
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
