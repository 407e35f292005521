import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detbag import nms
from detbag.geometry import Box, corners, diou, iou
from detbag.nms import _BLOCK, SCORE_FLOOR, Detection, diou_nms, greedy_nms, soft_nms


def brute_force_greedy(dets, threshold, overlap=iou):
    """O(n^2) reference built on the scalar geometry API."""
    kept = []
    for cid in {d.class_id for d in dets}:
        pool = sorted([i for i, d in enumerate(dets) if d.class_id == cid],
                      key=lambda i: (-dets[i].score, i))
        while pool:
            top = pool[0]
            kept.append(top)
            pool = [i for i in pool[1:]
                    if overlap(dets[top].box, dets[i].box) <= threshold]
    kept.sort(key=lambda i: (-dets[i].score, i))
    return [dets[i] for i in kept]


def brute_force_soft(dets, threshold, sigma, mode, floor=0.001):
    """Soft-NMS by explicit loops over the scalar iou: pick the live max
    (ties to the lower input index), decay the rest of its class, drop
    scores under the floor."""
    live = dict(enumerate(d.score for d in dets))
    out = []
    while live:
        top = min(live, key=lambda i: (-live[i], i))
        out.append((live.pop(top), top))
        for i in sorted(live):
            if dets[i].class_id != dets[top].class_id:
                continue
            o = iou(dets[top].box, dets[i].box)
            if mode == "gaussian":
                live[i] *= math.exp(-(o * o) / sigma)
            elif o > threshold:
                live[i] *= 1.0 - o
            if live[i] < floor:
                del live[i]
    out.sort(key=lambda si: (-si[0], si[1]))
    return [Detection(dets[i].box, s, dets[i].class_id) for s, i in out]


def random_detections(rng, n, classes=4):
    dets = []
    scores = rng.permutation(n) / n + rng.uniform(0, 1 / (2 * n))  # no ties
    for i in range(n):
        x, y = rng.uniform(0, 80, 2)
        w, h = rng.uniform(4, 30, 2)
        dets.append(Detection(Box(x, y, x + w, y + h),
                              float(np.clip(scores[i], 0, 1)),
                              int(rng.integers(0, classes))))
    return dets


def _random_detections(n: int, classes: int, rng) -> list[Detection]:
    dets = []
    for _ in range(n):
        cx, cy = rng.uniform(0, 1000, 2)
        w, h = rng.uniform(20, 120, 2)
        dets.append(Detection(
            Box(cx, cy, cx + w, cy + h),
            float(rng.uniform(0.0, 1.0)),
            int(rng.integers(0, classes))))
    return dets


def per_pick_rows(dets, overlap_row, rule):
    """The pick loop with one overlap row per pick: the exactness oracle
    for `nms._suppress`, whose rows come in blocks."""
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


VARIANTS = {
    "greedy": lambda dets: greedy_nms(dets, 0.5),
    "diou": lambda dets: diou_nms(dets, 0.45),
    "soft-linear": lambda dets: soft_nms(dets, 0.45),
    "soft-gaussian": lambda dets: soft_nms(dets, 0.45, sigma=0.5, mode="gaussian"),
}


def tied_grid_detections(n):
    """Integer-grid boxes of one class with four score levels, so that many
    boxes tie across the top-_BLOCK cut of a block."""
    rng = np.random.default_rng(83)
    dets = []
    for _ in range(n):
        x, y = rng.integers(0, 40, 2)
        w, h = rng.integers(1, 12, 2)
        dets.append(Detection(Box(x, y, x + w, y + h),
                              float(rng.choice([0.2, 0.4, 0.6, 0.8])), 0))
    return dets


def clustered_detections(seed):
    """Crowd-like clusters of jittered copies of planted boxes, 30 per
    cluster in 2 classes, with uniform scores: soft-NMS decays reorder the
    picks, so later picks fall outside the block of the current top scores."""
    rng = np.random.default_rng(seed)
    dets = []
    for c in range(12):
        x, y = rng.uniform(0, 300, 2)
        w, h = rng.uniform(10, 90, 2)
        for _ in range(30):
            dx, dy = rng.normal(0, 0.08, 2) * (w, h)
            sw, sh = np.exp(rng.normal(0, 0.1, 2))
            dets.append(Detection(Box(x + dx, y + dy, x + dx + w * sw, y + dy + h * sh),
                                  float(rng.uniform(0.01, 1.0)), c % 2))
    return dets


BLOCK_SETS = {
    "random-1000-seed0": lambda: _random_detections(1000, 1, np.random.default_rng(0)),
    "random-1000-seed1": lambda: _random_detections(1000, 1, np.random.default_rng(1)),
    "random-2000-seed0": lambda: _random_detections(2000, 5, np.random.default_rng(0)),
    "random-2000-seed1": lambda: _random_detections(2000, 5, np.random.default_rng(1)),
    "one-class-B-1": lambda: _random_detections(_BLOCK - 1, 1, np.random.default_rng(2)),
    "one-class-B": lambda: _random_detections(_BLOCK, 1, np.random.default_rng(3)),
    "one-class-B+1": lambda: _random_detections(_BLOCK + 1, 1, np.random.default_rng(4)),
    "one-class-2B+1": lambda: _random_detections(2 * _BLOCK + 1, 1, np.random.default_rng(5)),
    "tied-grid": lambda: tied_grid_detections(5 * _BLOCK),
    "clustered": lambda: clustered_detections(89),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the calls `nms` makes to its overlap kernels."""
    calls = []
    for name in ("box_iou", "box_diou"):
        def counted(a, b, kernel=getattr(nms, name)):
            calls.append(a.shape)
            return kernel(a, b)
        monkeypatch.setattr(nms, name, counted)
    return calls


class TestBlockRows:
    """Overlap rows computed in blocks give the same survivors, scores and
    order as one row per pick, and need far fewer kernel calls."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dets", BLOCK_SETS)
    def test_equals_per_pick_rows(self, monkeypatch, variant, dets):
        dets = BLOCK_SETS[dets]()
        got = VARIANTS[variant](dets)
        monkeypatch.setattr(nms, "_suppress", per_pick_rows)
        assert got == VARIANTS[variant](dets)

    def test_sets_cover_the_block_boundary(self):
        # the tied grid's top-_BLOCK boundary score is shared by boxes on both
        # sides of it; soft-NMS on the clusters picks out of score order
        scores = sorted((d.score for d in tied_grid_detections(5 * _BLOCK)), reverse=True)
        assert scores[_BLOCK - 1] == scores[_BLOCK]
        dets = clustered_detections(89)
        original = {(d.box, d.class_id): d.score for d in dets}
        before_decay = [original[(d.box, d.class_id)] for d in soft_nms(dets, 0.45)]
        assert before_decay != sorted(before_decay, reverse=True)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK])
    def test_class_within_one_block_makes_one_kernel_call(self, kernel_calls, variant, n):
        VARIANTS[variant](_random_detections(n, 1, np.random.default_rng(n)))
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kernel_calls_far_below_picks(self, kernel_calls, variant):
        out = VARIANTS[variant](_random_detections(1000, 1, np.random.default_rng(0)))
        picks = len(out) - 1  # the last box of a class is kept without a row
        assert len(kernel_calls) * 10 <= picks
        assert all(shape[0] <= _BLOCK for shape in kernel_calls)


class TestGreedy:
    @pytest.mark.parametrize("suppress", [greedy_nms, soft_nms, diou_nms],
                             ids=["greedy", "soft", "diou"])
    def test_single_detection(self, suppress):
        d = Detection(Box(0, 0, 1, 1), 0.7, 0)
        assert suppress([d], 0.5) == [d]

    def test_empty(self):
        assert greedy_nms([], 0.5) == []

    def test_low_overlap_keeps_both(self):
        a = Detection(Box(0, 0, 2, 2), 0.9, 0)
        b = Detection(Box(1, 1, 3, 3), 0.8, 0)  # iou = 1/7 < 0.5
        assert greedy_nms([a, b], 0.5) == [a, b]

    def test_high_overlap_suppresses(self):
        a = Detection(Box(0, 0, 2, 2), 0.9, 0)
        b = Detection(Box(0, 0.5, 2, 2.5), 0.8, 0)
        assert iou(a.box, b.box) == pytest.approx(0.6)
        assert greedy_nms([a, b], 0.5) == [a]

    def test_cross_class_never_suppresses(self):
        a = Detection(Box(0, 0, 2, 2), 0.9, 0)
        b = Detection(Box(0, 0, 2, 2), 0.8, 1)
        assert greedy_nms([a, b], 0.5) == [a, b]

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_matches_brute_force(self, threshold):
        rng = np.random.default_rng(41)
        dets = random_detections(rng, 1000)
        assert greedy_nms(dets, threshold) == brute_force_greedy(dets, threshold)

    def test_matches_brute_force_on_bench_nms_set(self):
        # 2000 boxes of 20-120 px over a 1000 px field in 5 classes
        dets = _random_detections(2000, 5, np.random.default_rng(0))
        assert greedy_nms(dets, 0.5) == brute_force_greedy(dets, 0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        dets = random_detections(rng, 200)
        assert greedy_nms(dets, 0.5) == greedy_nms(dets, 0.5)

    def test_score_tie_prefers_lower_input_index(self):
        a = Detection(Box(0, 0, 2, 2), 0.8, 0)
        b = Detection(Box(0.1, 0, 2.1, 2), 0.8, 0)
        assert greedy_nms([a, b], 0.5) == [a]
        assert greedy_nms([b, a], 0.5) == [b]

    def test_survivors_are_subset_sorted_by_score(self):
        rng = np.random.default_rng(47)
        dets = random_detections(rng, 300)
        out = greedy_nms(dets, 0.4)
        assert all(d in dets for d in out)
        assert all(out[i].score >= out[i + 1].score for i in range(len(out) - 1))

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            greedy_nms([], 1.5)


class TestSoft:
    def test_disjoint_scores_unchanged_linear(self):
        a = Detection(Box(0, 0, 1, 1), 0.9, 0)
        b = Detection(Box(5, 5, 6, 6), 0.4, 0)
        assert soft_nms([a, b], 0.5, mode="linear") == [a, b]

    def test_linear_decay_value(self):
        a = Detection(Box(0, 0, 2, 2), 0.9, 0)
        b = Detection(Box(0, 0.5, 2, 2.5), 0.8, 0)  # iou 0.6 > 0.5
        out = soft_nms([a, b], 0.5, mode="linear")
        assert out[0] == a
        assert out[1].score == pytest.approx(0.8 * (1 - 0.6))

    def test_gaussian_huge_sigma_no_decay(self):
        rng = np.random.default_rng(53)
        dets = random_detections(rng, 50, classes=2)
        assert min(d.score for d in dets) > SCORE_FLOOR
        out = soft_nms(dets, 0.5, sigma=1e9, mode="gaussian")
        assert len(out) == len(dets)
        for got, want in zip(out, sorted(dets, key=lambda d: -d.score)):
            assert abs(got.score - want.score) < 1e-6

    def test_scores_never_increase(self):
        rng = np.random.default_rng(59)
        dets = random_detections(rng, 200)
        by_box = {(d.box, d.class_id): d.score for d in dets}
        for mode in ("linear", "gaussian"):
            for d in soft_nms(dets, 0.4, sigma=0.5, mode=mode):
                assert d.score <= by_box[(d.box, d.class_id)] + 1e-12

    def test_score_floor_drops(self):
        a = Detection(Box(0, 0, 2, 2), 0.9, 0)
        b = Detection(Box(0, 0, 2, 2), 0.8, 0)  # iou 1 -> decays to 0
        out = soft_nms([a, b], 0.5, mode="linear")
        assert out == [a]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            soft_nms([], mode="quadratic")

    @pytest.mark.parametrize("kwargs,name", [
        ({"iou_threshold": math.nan}, "iou_threshold"),
        ({"iou_threshold": -3.0}, "iou_threshold"),
        ({"iou_threshold": 7.0}, "iou_threshold"),
        ({"iou_threshold": math.nan, "mode": "gaussian"}, "iou_threshold"),
        ({"sigma": math.nan, "mode": "gaussian"}, "sigma"),
        ({"sigma": math.inf, "mode": "gaussian"}, "sigma"),
        ({"sigma": 0.0, "mode": "gaussian"}, "sigma"),
        ({"sigma": -1.0, "mode": "gaussian"}, "sigma"),
        ({"sigma": 1e-320, "mode": "gaussian"}, "sigma"),  # subnormal
        ({"sigma": 5e-324, "mode": "gaussian"}, "sigma"),
    ])
    def test_bad_argument_named(self, kwargs, name):
        dets = [Detection(Box(0, 0, 2, 2), 0.9, 0), Detection(Box(0, 0, 2, 2), 0.8, 0)]
        with pytest.raises(ValueError, match=name):
            soft_nms(dets, **kwargs)

    def test_smallest_normal_sigma_decays_without_overflow(self):
        dets = [Detection(Box(0, 0, 2, 2), 0.9, 0), Detection(Box(0, 0, 2, 2), 0.8, 0),
                Detection(Box(0, 0, 2, 1), 0.7, 0), Detection(Box(5, 5, 6, 6), 0.6, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = soft_nms(dets, 0.5, sigma=sys.float_info.min, mode="gaussian")
        assert [(d.box, d.score) for d in out] == [(dets[0].box, 0.9), (dets[3].box, 0.6)]

    @pytest.mark.parametrize("mode", ["linear", "gaussian"])
    def test_tie_after_decay_picks_lower_input_index(self, mode):
        a = Detection(Box(0, 0, 10, 10), 0.9, 0)
        c = Detection(Box(0, 0, 20, 10), 0.8, 0)  # iou(a, c) = iou(b, c) = 0.5
        tied = soft_nms([a, c], 0.45, mode=mode)[1].score  # c after a's decay
        b = Detection(Box(10, 0, 20, 10), tied, 0)  # touches a: no decay
        for order in ([a, b, c], [a, c, b]):
            out = soft_nms(order, 0.45, mode=mode)
            # b and c tie after a; the earlier one is picked and decays the other
            first, second = order[1], order[2]
            assert [(d.box, d.score) for d in out[1:]] == [
                (first.box, tied), (second.box, out[2].score)]
            assert out[2].score < tied

    @pytest.mark.parametrize("mode", ["linear", "gaussian"])
    def test_matches_brute_force_on_crowded_boxes(self, mode):
        rng = np.random.default_rng(67)
        dets = []
        for _ in range(12):
            x, y = rng.uniform(0, 200, 2)
            w, h = rng.uniform(10, 60, 2)
            cid = int(rng.integers(0, 3))
            for _ in range(15):
                dx, dy = rng.normal(0, 0.1, 2) * (w, h)
                score = float(rng.choice([0.5, rng.uniform(0.01, 1.0)]))
                dets.append(Detection(Box(x + dx, y + dy, x + dx + w, y + dy + h),
                                      score, cid))
        got = soft_nms(dets, 0.45, sigma=0.5, mode=mode)
        want = brute_force_soft(dets, 0.45, 0.5, mode)
        assert [(d.box, d.class_id) for d in got] == [(d.box, d.class_id) for d in want]
        assert np.allclose([d.score for d in got], [d.score for d in want],
                           rtol=1e-12, atol=0.0)


class TestDiouNms:
    def test_identical_boxes_one_survivor(self):
        a = Detection(Box(0, 0, 2, 2), 0.9, 0)
        b = Detection(Box(0, 0, 2, 2), 0.8, 0)
        assert diou_nms([a, b], 0.9) == [a]

    def test_empty(self):
        assert diou_nms([], 0.5) == []

    def test_offset_centers_survive_where_greedy_suppresses(self):
        # integer pair found by search: iou ~ 0.538, diou ~ 0.486
        a = Detection(Box(0, 0, 2, 10), 0.9, 0)
        b = Detection(Box(0, 3, 2, 13), 0.8, 0)
        assert iou(a.box, b.box) > 0.5
        assert diou(a.box, b.box) < 0.5
        assert greedy_nms([a, b], 0.5) == [a]
        assert diou_nms([a, b], 0.5) == [a, b]

    def test_superset_of_greedy_at_equal_threshold(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            dets = random_detections(rng, 100)
            greedy_kept = {id(d) for d in greedy_nms(dets, 0.5)}
            diou_kept = {id(d) for d in diou_nms(dets, 0.5)}
            assert greedy_kept <= diou_kept

    def test_matches_brute_force_with_diou_criterion(self):
        rng = np.random.default_rng(67)
        dets = random_detections(rng, 400)
        assert diou_nms(dets, 0.45) == brute_force_greedy(dets, 0.45, overlap=diou)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            diou_nms([], 1.5)


class TestClassIsolation:
    def test_permuting_class_ids_permutes_output(self):
        rng = np.random.default_rng(71)
        dets = random_detections(rng, 150, classes=3)
        perm = {0: 7, 1: 5, 2: 9}
        renamed = [Detection(d.box, d.score, perm[d.class_id]) for d in dets]
        out = greedy_nms(dets, 0.5)
        out_renamed = greedy_nms(renamed, 0.5)
        assert [(d.box, d.score, perm[d.class_id]) for d in out] == \
               [(d.box, d.score, d.class_id) for d in out_renamed]

    def test_per_class_runs_merge(self):
        rng = np.random.default_rng(73)
        dets = random_detections(rng, 150, classes=3)
        merged = greedy_nms(dets, 0.5)
        separate = []
        for cid in {d.class_id for d in dets}:
            separate += greedy_nms([d for d in dets if d.class_id == cid], 0.5)
        assert sorted(merged, key=lambda d: -d.score) == \
               sorted(separate, key=lambda d: -d.score)


class TestDetectionValidation:
    def test_score_range(self):
        with pytest.raises(ValueError):
            Detection(Box(0, 0, 1, 1), 1.5, 0)

    def test_class_id(self):
        with pytest.raises(ValueError):
            Detection(Box(0, 0, 1, 1), 0.5, -1)


@st.composite
def integer_detections(draw, distinct_scores=False):
    """Up to 12 boxes with integer corners (zero sides included), so exact
    IoU ties with round thresholds occur; scores are tenths, or distinct
    hundredths."""
    rows = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                                   st.integers(0, 6), st.integers(0, 6),
                                   st.integers(0, 2)), max_size=12))
    n = len(rows)
    if distinct_scores:
        scores = [k / 100 for k in draw(st.lists(st.integers(0, 100), min_size=n,
                                                 max_size=n, unique=True))]
    else:
        scores = [k / 10 for k in draw(st.lists(st.integers(0, 10), min_size=n,
                                                max_size=n))]
    return [Detection(Box(x, y, x + w, y + h), s, c)
            for (x, y, w, h, c), s in zip(rows, scores)]


SUPPRESSORS = [(greedy_nms, [0.0, 0.25, 1 / 3, 0.5, 1.0]),
               (diou_nms, [-0.5, 0.0, 0.25, 0.5, 1.0])]


class TestProperties:
    @pytest.mark.parametrize("suppress,thresholds", SUPPRESSORS,
                             ids=["greedy", "diou"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_idempotent(self, suppress, thresholds, data):
        dets = data.draw(integer_detections())
        t = data.draw(st.sampled_from(thresholds))
        once = suppress(dets, t)
        assert suppress(once, t) == once

    @pytest.mark.parametrize("suppress,thresholds", SUPPRESSORS,
                             ids=["greedy", "diou"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_distinct_scores_make_input_order_irrelevant(self, suppress, thresholds, data):
        dets = data.draw(integer_detections(distinct_scores=True))
        shuffled = data.draw(st.permutations(dets))
        t = data.draw(st.sampled_from(thresholds))
        assert suppress(shuffled, t) == suppress(dets, t)

    @settings(max_examples=200, deadline=None)
    @given(dets=integer_detections(), t=st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]))
    def test_soft_linear_matches_brute_force(self, dets, t):
        assert soft_nms(dets, t, mode="linear") == brute_force_soft(dets, t, 0.5, "linear")

    @settings(max_examples=200, deadline=None)
    @given(dets=integer_detections(), sigma=st.sampled_from([0.1, 0.5, 2.0]))
    def test_soft_gaussian_matches_brute_force(self, dets, sigma):
        got = soft_nms(dets, 0.5, sigma=sigma, mode="gaussian")
        want = brute_force_soft(dets, 0.5, sigma, "gaussian")
        # np.exp and math.exp may differ in the last bit
        assert [(d.box, d.class_id) for d in got] == [(d.box, d.class_id) for d in want]
        assert np.allclose([d.score for d in got], [d.score for d in want],
                           rtol=1e-12, atol=0.0)
