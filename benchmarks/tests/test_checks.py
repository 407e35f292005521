"""The benchmark's output checks accept detbag's outputs and reject
corrupted ones; the span recorder nests and times spans correctly."""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from detbag.augment import Sample, mosaic, photometric  # noqa: E402
from detbag.decode import Anchor, DecodeConfig, RawPrediction, decode  # noqa: E402
from detbag.evalap import evaluate  # noqa: E402
from detbag.evolve import anchor_recall  # noqa: E402
from detbag.geometry import Box, CenterBox  # noqa: E402
from detbag.losses import box_loss  # noqa: E402
from detbag.nms import Detection, diou_nms, soft_nms  # noqa: E402
from detbag.trainsched import CmBNAccumulator  # noqa: E402

from detbench import oracles  # noqa: E402
from detbench.oracles import CheckFailed  # noqa: E402
from detbench.spans import Tracer  # noqa: E402
from detbench.workloads import check_cli_eval  # noqa: E402


def clustered(rng, n_truths=6, per_truth=12, classes=2):
    truths, dets = [], []
    for _ in range(n_truths):
        x, y = rng.uniform(0, 200, 2)
        w, h = rng.uniform(8, 120, 2)
        cid = int(rng.integers(0, classes))
        truths.append((Box(x, y, x + w, y + h), cid))
        for _ in range(per_truth):
            dx, dy = rng.normal(0, 0.1, 2) * (w, h)
            dets.append(Detection(Box(x + dx, y + dy, x + dx + w, y + dy + h),
                                  float(rng.uniform(0.01, 1.0)), cid))
    return truths, dets


def test_diou_check_rejects_a_dropped_survivor():
    _, dets = clustered(np.random.default_rng(1))
    kept = diou_nms(dets, 0.45)
    want = oracles.reference_diou_nms(dets, 0.45)
    oracles.check_survivors(kept, want, "DIoU-NMS")
    with pytest.raises(CheckFailed):
        oracles.check_survivors(kept[:3] + kept[4:], want, "DIoU-NMS")


def test_soft_nms_check_rejects_a_dropped_survivor_or_score():
    _, dets = clustered(np.random.default_rng(2))
    kept = soft_nms(dets, 0.45, sigma=0.5)
    oracles.check_soft_nms(dets, kept, 0.45)
    with pytest.raises(CheckFailed):
        oracles.check_soft_nms(dets, kept[:5] + kept[6:], 0.45)
    bumped = kept[:2] + [Detection(kept[2].box, kept[2].score * 0.999, kept[2].class_id)]
    with pytest.raises(CheckFailed):
        oracles.check_soft_nms(dets, bumped + kept[3:], 0.45)


@pytest.mark.parametrize("key", ["AP", "AP50", "AP75", "AP_S", "AP_M", "AP_L"])
def test_ap_check_rejects_a_1e_6_perturbation(key):
    rng = np.random.default_rng(3)
    truths, dets = {}, {}
    for img in range(4):
        truths[img], flat = clustered(rng, per_truth=4)
        dets[img] = soft_nms(flat, 0.45)
    row = evaluate(dets, truths).as_dict()
    want = oracles.reference_evaluate(dets, truths)
    oracles.check_ap_row(row, want)
    if row[key] is None:
        pytest.skip(f"{key} has no ground truth in this sample")
    with pytest.raises(CheckFailed):
        oracles.check_ap_row({**row, key: row[key] + 1e-6}, want)


def test_augmented_check_rejects_one_flipped_byte():
    rng = np.random.default_rng(4)
    samples = [Sample(rng.random((40, 48, 3)), [(Box(4, 4, 30, 20), 1)]) for _ in range(4)]
    out = photometric(mosaic(samples, 64, 64, np.random.default_rng(5)),
                      brightness=0.05, contrast=1.1, hue=0.02, saturation=0.9,
                      noise_sigma=0.02, rng=np.random.default_rng(6))
    digest = oracles.sample_digest(out)
    oracles.check_augmented(out, digest)
    # the lowest mantissa byte of one pixel value: it stays inside [0, 1]
    out.image.reshape(-1).view(np.uint8)[8 * 1234] ^= 0x01
    assert 0.0 <= out.image.min() and out.image.max() <= 1.0
    with pytest.raises(CheckFailed):
        oracles.check_augmented(out, digest)


def test_augmented_check_rejects_a_box_outside_the_canvas():
    img = np.full((10, 10, 3), 0.5)
    sample = Sample(img, [(Box(1, 1, 9, 9), 1)])
    sample.labels[0] = (Box(1, 1, 11, 9), 1)
    with pytest.raises(CheckFailed):
        oracles.check_augmented(sample, oracles.sample_digest(sample))


@pytest.mark.parametrize("component", range(4))
def test_box_loss_check_rejects_a_scaled_gradient_component(component):
    pred, truth = CenterBox(50.0, 40.0, 30.0, 22.0), CenterBox(55.0, 37.0, 26.0, 30.0)
    res = box_loss(pred, truth, "ciou")
    p = (pred.x_c, pred.y_c, pred.w, pred.h)
    t = (truth.x_c, truth.y_c, truth.w, truth.h)
    oracles.check_box_loss(p, t, res.value, res.grad)
    grad = res.grad.copy()
    grad[component] *= 1.5
    with pytest.raises(CheckFailed):
        oracles.check_box_loss(p, t, res.value, grad)


def test_decode_check_rejects_a_shifted_center():
    rng = np.random.default_rng(7)
    anchors = ((10.0, 14.0), (23.0, 27.0))
    cfg = DecodeConfig(4, 3, 8.0, tuple(Anchor(w, h) for w, h in anchors))
    head = rng.normal(0, 2, (2, 5 + 3, 3, 4))
    rows = head.transpose(0, 2, 3, 1).reshape(-1, 8).tolist()
    got = []
    for k, r in enumerate(rows):
        a, rest = divmod(k, 12)
        cy, cx = divmod(rest, 4)
        d = decode(RawPrediction(*r[:5], tuple(r[5:]), (cx, cy), a), cfg)
        got.append((d.box.x_c, d.box.y_c, d.box.w, d.box.h, d.objectness, *d.class_probs))
    got = np.array(got)
    want = oracles.closed_form_decode(head, 8.0, anchors, cfg.sensitivity_scale)
    want = want.transpose(0, 2, 3, 1).reshape(-1, 8)
    oracles.check_decoded(want, got)
    got[5, 0] += 1e-9
    with pytest.raises(CheckFailed):
        oracles.check_decoded(want, got)


def test_cmbn_check_rejects_perturbed_statistics():
    rng = np.random.default_rng(8)
    batches = [rng.normal(3.0, 2.0, (16, 5)) for _ in range(4)]
    acc = CmBNAccumulator(4)
    for mb in batches:
        stats = acc.update(mb)
    oracles.check_cmbn(batches, stats.mean, stats.var)
    with pytest.raises(CheckFailed):
        oracles.check_cmbn(batches, stats.mean, stats.var * (1 + 1e-9))


def test_recall_check_rejects_a_wrong_recall():
    rng = np.random.default_rng(9)
    shapes = rng.uniform(4, 120, (500, 2))
    anchors = [(10.0, 12.0), (40.0, 30.0), (90.0, 100.0)]
    recall, _ = anchor_recall(shapes, [Anchor(w, h) for w, h in anchors], 0.213)
    oracles.check_recall(recall, shapes, anchors, 0.213)
    with pytest.raises(CheckFailed):
        oracles.check_recall(recall - 1 / 500, shapes, anchors, 0.213)


def test_cli_eval_check_compares_the_printed_row(tmp_path):
    truths, dets = clustered(np.random.default_rng(10), classes=1)
    ann = {"images": [{"id": 1, "file_name": "a.ppm", "width": 400, "height": 400}],
           "annotations": [{"id": k + 1, "image_id": 1, "category_id": 1,
                            "bbox": [b.x_min, b.y_min, b.width, b.height]}
                           for k, (b, _) in enumerate(truths)],
           "categories": [{"id": 1, "name": "a"}]}
    recs = [{"image_id": 1, "category_id": 1, "score": d.score,
             "bbox": [d.box.x_min, d.box.y_min, d.box.width, d.box.height]} for d in dets]
    (tmp_path / "ann.json").write_text(json.dumps(ann))
    (tmp_path / "det.json").write_text(json.dumps(recs))
    parsed = [Detection(Box(r["bbox"][0], r["bbox"][1], r["bbox"][0] + r["bbox"][2],
                            r["bbox"][1] + r["bbox"][3]), r["score"], 1) for r in recs]
    row = evaluate({1: soft_nms(parsed, 0.45, sigma=0.5)},
                   {1: [(b, 1) for b, _ in truths]}).as_dict()
    check_cli_eval(tmp_path / "det.json", tmp_path / "ann.json", row)
    with pytest.raises(CheckFailed):
        check_cli_eval(tmp_path / "det.json", tmp_path / "ann.json",
                       {**row, "AP": row["AP"] + 1e-6})


def test_reference_soft_nms_decays_linearly():
    a = Detection(Box(0, 0, 10, 10), 0.9, 0)
    b = Detection(Box(1, 0, 11, 10), 0.8, 0)  # IoU 9/11 with a
    (s_a, i_a), (s_b, i_b) = oracles.reference_soft_nms([a, b], 0.45)
    assert (i_a, s_a) == (0, 0.9)
    assert i_b == 1 and math.isclose(s_b, 0.8 * (1 - 9 / 11))


def test_tracer_off_returns_the_function_itself():
    tr = Tracer()
    assert tr.wrap(len, "builtins.len") is len
    with tr.span("x.y", calls=3):
        pass
    tr.count("x.n", 5)
    assert tr.spans == [] and tr.summary()["counts"] == {}


def test_tracer_nests_spans_and_splits_self_time():
    tr = Tracer(enabled=True)

    def child():
        time.sleep(0.01)

    traced_child = tr.wrap(child, "m.child")

    def parent():
        traced_child()
        traced_child()
        time.sleep(0.01)

    tr.item = 7
    tr.wrap(parent, "m.parent")()
    with tr.span("m.batch", calls=4):
        pass
    s = tr.summary()
    assert s["calls"] == {"m.parent": 1, "m.child": 2, "m.batch": 4}
    assert s["busy_s"]["m.parent"] >= s["busy_s"]["m.child"] >= 0.02
    assert s["self_s"]["m.parent"] == pytest.approx(
        s["busy_s"]["m.parent"] - s["busy_s"]["m.child"])
    # only the parent and the batch span are top-level
    assert s["top_level_s"][7] == pytest.approx(s["busy_s"]["m.parent"]
                                                + s["busy_s"]["m.batch"])
    parents = {span[0]: span[5] for span in tr.nested()}
    assert parents["m.parent"] == -1 and parents["m.child"] == 0
