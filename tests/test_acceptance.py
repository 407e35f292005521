"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines live.
"""

import functools
import json
import math
import time

import numpy as np

from conftest import write_dataset
from detbag.augment import Sample, mosaic
from detbag.cli import main
from detbag.decode import (Anchor, DecodeConfig, RawPrediction, assign_anchors,
                           decode, sigmoid)
from detbag.evalap import evaluate
from detbag.evolve import GAConfig, HyperEntry, HyperVector, evolve
from detbag.featuremap import SPP_DEFAULT_KERNELS, activation, spp
from detbag.geometry import Box, CenterBox, ciou, diou, giou, iou
from detbag.nms import Detection, diou_nms, greedy_nms
from detbag.trainsched import CmBNAccumulator
from detbench.oracles import reference_evaluate

from test_featuremap import naive_max_pool
from test_geometry import raster_iou
from test_losses import check_gradients
from test_nms import brute_force_greedy, random_detections


def report(number, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:2d}: {description}")
                raise
            print(f"[PASS] criterion {number:2d}: {description}")
        return wrapper
    return decorator


@report(1, "IoU matches rasterization oracle on 10k integer pairs (<5s)")
def test_criterion_1_iou_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(10_000):
        x1, x2 = sorted(rng.integers(0, 21, 2))
        y1, y2 = sorted(rng.integers(0, 21, 2))
        u1, u2 = sorted(rng.integers(0, 21, 2))
        v1, v2 = sorted(rng.integers(0, 21, 2))
        a = Box(float(x1), float(y1), float(x2), float(y2))
        b = Box(float(u1), float(v1), float(u2), float(v2))
        assert abs(iou(a, b) - raster_iou(a, b)) < 1e-9
    assert time.perf_counter() - start < 5.0


@report(2, "analytic loss gradients match finite differences, 1k pairs (<10s)")
def test_criterion_2_loss_gradients():
    start = time.perf_counter()
    for variant in ("mse", "iou", "giou", "diou", "ciou"):
        check_gradients(variant, n=1000, seed=1002, tol=1e-4)
    assert time.perf_counter() - start < 10.0


@report(3, "metric ordering holds and all metrics are scale invariant")
def test_criterion_3_ordering_and_scale():
    rng = np.random.default_rng(1003)
    eps = 1e-12
    for _ in range(2000):
        x, y, u, v = rng.uniform(-5, 5, 4)
        w1, h1, w2, h2 = rng.uniform(0.05, 10, 4)
        a = Box(x, y, x + w1, y + h1)
        b = Box(u, v, u + w2, v + h2)
        assert ciou(a, b) <= diou(a, b) + eps <= iou(a, b) + 2 * eps
        assert giou(a, b) <= iou(a, b) + eps
        for k in (0.5, 3.0, 1000.0):
            ka = Box(a.x_min * k, a.y_min * k, a.x_max * k, a.y_max * k)
            kb = Box(b.x_min * k, b.y_min * k, b.x_max * k, b.y_max * k)
            for metric in (iou, giou, diou, ciou):
                assert abs(metric(ka, kb) - metric(a, b)) < 1e-9


@report(4, "greedy NMS equals quadratic oracle; DIoU-NMS never suppresses "
           "more than greedy")
def test_criterion_4_nms_oracle():
    rng = np.random.default_rng(1004)
    dets = random_detections(rng, 1000)
    for threshold in (0.3, 0.5, 0.7):
        assert greedy_nms(dets, threshold) == brute_force_greedy(dets, threshold)
        # diou <= iou makes the suppression test strictly harder: against any
        # fixed reference box, the diou-suppressed set is contained in the
        # iou-suppressed set...
        for ref in greedy_nms(dets, threshold)[:40]:
            same = [d for d in dets if d.class_id == ref.class_id and d is not ref]
            diou_hit = {id(d) for d in same if diou(ref.box, d.box) > threshold}
            iou_hit = {id(d) for d in same if iou(ref.box, d.box) > threshold}
            assert diou_hit <= iou_hit
        # ...so the full cascade retains at least as many detections
        assert len(diou_nms(dets, threshold)) >= len(greedy_nms(dets, threshold))


@report(5, "decode: s=1 equals sigmoid(t)+c to 1e-12; s=1.1 reaches the cell "
           "boundary at finite logit")
def test_criterion_5_decode_regression():
    cfg1 = DecodeConfig(64, 64, 1.0, (Anchor(10, 10),), sensitivity_scale=1.0)
    rng = np.random.default_rng(1005)
    for _ in range(10_000):
        t = float(rng.normal(0, 4))
        c = int(rng.integers(0, 64))
        out = decode(RawPrediction(t, 0, 0, 0, 0.0, cell=(c, 0)), cfg1)
        assert abs(out.box.x_c - (sigmoid(t) + c)) < 1e-12
    s = 1.1
    p = (s - 1.0) / (2.0 * s)
    t_boundary = math.log(p / (1.0 - p))
    cfg2 = DecodeConfig(64, 64, 1.0, (Anchor(10, 10),), sensitivity_scale=s)
    out = decode(RawPrediction(t_boundary, 0, 0, 0, 0.0, cell=(7, 0)), cfg2)
    assert abs(out.box.x_c - 7.0) < 1e-9


@report(6, "anchor assignment at threshold 0.213: exact matches always "
           "assigned, count monotone in threshold")
def test_criterion_6_anchor_assignment():
    anchors = (Anchor(10, 13), Anchor(30, 61), Anchor(62, 45), Anchor(116, 90))
    cfg = DecodeConfig(16, 16, 32.0, anchors)
    rng = np.random.default_rng(1006)
    for a in anchors:
        out = assign_anchors(CenterBox(256, 256, a.w, a.h), cfg, 0.213)
        assert anchors.index(a) in [idx for _, idx in out]
        assert len(out) >= 1
    for _ in range(500):
        truth = CenterBox(256, 256, float(rng.uniform(2, 300)),
                          float(rng.uniform(2, 300)))
        counts = [len(assign_anchors(truth, cfg, t))
                  for t in (0.05, 0.213, 0.35, 0.5, 0.7, 0.9)]
        assert counts[0] >= 1
        assert all(a >= b for a, b in zip(counts, counts[1:]))


@report(7, "CmBN final statistics equal whole-batch mean/variance (1e-10, "
           "100 configurations)")
def test_criterion_7_cmbn():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        splits = int(rng.integers(1, 9))
        per = int(rng.integers(1, 17))
        channels = int(rng.integers(1, 5))
        batch = rng.normal(loc=rng.uniform(-3, 3), scale=rng.uniform(0.5, 4),
                           size=(splits * per, channels))
        acc = CmBNAccumulator(splits)
        for i in range(splits):
            stats = acc.update(batch[i * per:(i + 1) * per])
        assert np.abs(stats.mean - batch.mean(axis=0)).max() < 1e-10
        assert np.abs(stats.var - batch.var(axis=0)).max() < 1e-10


@report(8, "mish/swish derivatives match finite differences over [-20,20]; "
           "no overflow to |x|=1e4")
def test_criterion_8_activations():
    for kind in ("mish", "swish"):
        for x in np.linspace(-20, 20, 801):
            value, deriv = activation(float(x), kind)
            h = 1e-6
            fd = (activation(float(x) + h, kind)[0]
                  - activation(float(x) - h, kind)[0]) / (2 * h)
            assert abs(deriv - fd) / max(1.0, abs(fd)) < 1e-5
            assert math.isfinite(value)
        for x in (1e4, -1e4):
            value, deriv = activation(x, kind)
            assert math.isfinite(value) and math.isfinite(deriv)


@report(9, "SPP equals the naive pooling oracle on 50 random 8x8x3 maps")
def test_criterion_9_spp():
    rng = np.random.default_rng(1009)
    for _ in range(50):
        f = rng.normal(size=(3, 8, 8))
        expected = np.concatenate(
            [naive_max_pool(f, k) for k in SPP_DEFAULT_KERNELS], axis=0)
        assert np.array_equal(spp(f, SPP_DEFAULT_KERNELS), expected)


@report(10, "AP evaluator matches the independent reference (1e-9) and the "
            "canonical 1.0 / 0.5 / 0.0 cases")
def test_criterion_10_ap_evaluator():
    rng = np.random.default_rng(1010)
    truths = {img: [] for img in (1, 2, 3)}
    for _ in range(10):
        img = int(rng.integers(1, 4))
        x, y = rng.uniform(0, 150, 2)
        w, h = rng.uniform(8, 110, 2)
        truths[img].append((Box(x, y, x + w, y + h), int(rng.integers(1, 3))))
    dets = {img: [] for img in (1, 2, 3)}
    for img, labeled in truths.items():
        for box, cid in labeled:
            if rng.random() < 0.7:
                dx, dy = rng.uniform(-8, 8, 2)
                dets[img].append(Detection(
                    Box(box.x_min + dx, box.y_min + dy, box.x_max + dx,
                        box.y_max + dy), float(rng.uniform(0.2, 1.0)), cid))
        dets[img].append(Detection(Box(180, 180, 220, 220),
                                   float(rng.uniform(0, 1)), 1))
    got = evaluate(dets, truths).as_dict()
    want = reference_evaluate(dets, truths)
    for key in want:
        if want[key] is None:
            assert got[key] is None
        else:
            assert abs(got[key] - want[key]) < 1e-9

    # canonical cases
    t = {1: [(Box(10, 10, 60, 60), 1)]}
    perfect = evaluate({1: [Detection(Box(10, 10, 60, 60), 0.9, 1)]}, t)
    assert perfect.ap == 1.0 and perfect.ap50 == 1.0 and perfect.ap75 == 1.0
    fp_first = evaluate({1: [Detection(Box(200, 200, 260, 260), 0.95, 1),
                             Detection(Box(10, 10, 60, 60), 0.9, 1)]}, t)
    assert fp_first.ap50 == 0.5
    assert evaluate({}, t).ap == 0.0


@report(11, "GA beats equal-budget random search in >= 18/20 trials; history "
            "nondecreasing in all")
def test_criterion_11_ga_vs_random_search():
    wins = 0
    for trial in range(20):
        trial_rng = np.random.default_rng(1000 + trial)
        target = trial_rng.uniform(1, 9, 2)

        calls = 0

        def fitness(vec):
            nonlocal calls
            calls += 1
            return -((vec["a"] - target[0]) ** 2 + (vec["b"] - target[1]) ** 2)

        seed_vec = HyperVector({"a": HyperEntry(5.0, 0.01, 10.0, 0.2),
                                "b": HyperEntry(5.0, 0.01, 10.0, 0.2)})
        _, history = evolve(seed_vec, fitness,
                            GAConfig(population=10, generations=60, seed=trial))
        bests = [h.best for h in history]
        assert bests == sorted(bests)
        budget = calls  # 600 mutants + the seed evaluation

        rs_rng = np.random.default_rng(5000 + trial)
        rs_best = max(-((a - target[0]) ** 2 + (b - target[1]) ** 2)
                      for a, b in rs_rng.uniform(0.01, 10.0, (budget, 2)))
        if bests[-1] >= rs_best:
            wins += 1
    assert wins >= 18, f"GA won only {wins}/20 trials"


@report(12, "augment CLI is byte-identical across runs; mosaic boxes stay in "
            "canvas over a 500-sample fuzz run")
def test_criterion_12_augment_determinism(tmp_path, capsys):
    ann = write_dataset(tmp_path, [[[4, 4, 12, 10], [2, 2, 8, 20]]] * 8,
                        image_size=(32, 32), with_images=True,
                        rng=np.random.default_rng(12))
    dirs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        code = main(["augment", str(ann), str(tmp_path), "--op", "mosaic",
                     "--out-dir", str(out_dir), "--seed", "3",
                     "--out-size", "64"])
        capsys.readouterr()
        assert code == 0
        dirs.append(out_dir)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    rng = np.random.default_rng(1012)
    pool = []
    for _ in range(500):
        h, w = (int(v) for v in rng.integers(16, 64, 2))
        labels = []
        for _ in range(int(rng.integers(0, 4))):
            x, y = rng.uniform(0, w - 4), rng.uniform(0, h - 4)
            bw, bh = rng.uniform(1, w - x), rng.uniform(1, h - y)
            labels.append((Box(x, y, min(x + bw, w), min(y + bh, h)),
                           int(rng.integers(0, 5))))
        pool.append(Sample(np.zeros((h, w, 3)), labels))
    for i in range(0, 500, 4):
        out = mosaic(pool[i:i + 4], 96, 80, rng)
        for box, _ in out.labels:
            assert 0 <= box.x_min <= box.x_max <= 96
            assert 0 <= box.y_min <= box.y_max <= 80


@report(13, "optimize-anchors recovers two planted clusters from 5k boxes "
            "within 5% (<10s)")
def test_criterion_13_end_to_end_anchors(tmp_path, capsys):
    rng = np.random.default_rng(1013)
    w1 = rng.normal(10, 0.6, 2500)
    h1 = rng.normal(10, 0.6, 2500)
    w2 = rng.normal(50, 2.0, 2500)
    h2 = rng.normal(30, 1.5, 2500)
    boxes = [[5, 5, float(w), float(h)] for w, h in zip(w1, h1)]
    boxes += [[5, 5, float(w), float(h)] for w, h in zip(w2, h2)]
    ann = write_dataset(tmp_path, [boxes], image_size=(512, 512))
    start = time.perf_counter()
    code = main(["optimize-anchors", str(ann), "--k", "2", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 10.0
    anchors = json.loads(out)["anchors"]
    med1 = (np.median(w1), np.median(h1))
    med2 = (np.median(w2), np.median(h2))
    for got, want in zip(anchors, (med1, med2)):
        assert abs(got[0] - want[0]) / want[0] < 0.05
        assert abs(got[1] - want[1]) / want[1] < 0.05
