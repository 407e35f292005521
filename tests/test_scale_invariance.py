"""Scaling every coordinate by a power of two changes no overlap, so it
changes no suppression decision and no AP: the IoU family is scale
invariant, and a power of two scales each float exactly. An absolute
epsilon or pixel floor anywhere on the path breaks this, at some scale.
Head decoding scales the same way with its stride and anchors.

AP_S, AP_M and AP_L are left out: their area buckets are absolute pixels.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detbag.decode import Anchor, DecodeConfig, RawPrediction, decode
from detbag.evalap import evaluate
from detbag.geometry import Box, box_diou, box_iou, corners
from detbag.nms import Detection, diou_nms, greedy_nms, soft_nms

SUPPRESSORS = {
    "greedy": lambda dets: greedy_nms(dets, 0.5),
    "diou": lambda dets: diou_nms(dets, 0.45),
    "soft-linear": lambda dets: soft_nms(dets, 0.3),
    "soft-gaussian": lambda dets: soft_nms(dets, 0.3, sigma=0.5, mode="gaussian"),
}


def random_set(seed):
    """About 60 detections and 15 truths over 3 classes: the detections are
    jittered copies of the truths and strays, on a 0.01 score grid so that
    scores tie, with sides from 0.5 to 80 on a 400-wide image."""
    rng = np.random.default_rng(seed)
    truths = []
    for _ in range(15):
        x, y = rng.uniform(0.0, 320.0, 2)
        w, h = rng.uniform(0.5, 80.0, 2)
        truths.append((Box(x, y, x + w, y + h), int(rng.integers(3))))
    dets = []
    for _ in range(int(rng.integers(50, 71))):
        if rng.random() < 0.7:
            box, cid = truths[rng.integers(len(truths))]
            x, y = box.x_min + rng.normal(0.0, 3.0), box.y_min + rng.normal(0.0, 3.0)
            w, h = box.width * rng.uniform(0.7, 1.3), box.height * rng.uniform(0.7, 1.3)
        else:
            x, y = rng.uniform(0.0, 320.0, 2)
            w, h = rng.uniform(0.5, 80.0, 2)
            cid = int(rng.integers(3))
        dets.append(Detection(Box(x, y, x + w, y + h), round(rng.uniform(0.0, 1.0), 2), cid))
    return dets, truths


def scaled(box: Box, k: int) -> Box:
    return Box(*(math.ldexp(v, k) for v in (box.x_min, box.y_min, box.x_max, box.y_max)))


def as_rows(dets, k=0):
    """(score, class, corners scaled back by 2**-k) of each output detection."""
    return [(d.score, d.class_id, scaled(d.box, -k)) for d in dets]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-20, 20))
@example(seed=0, k=-20)
@example(seed=1, k=20)
def test_power_of_two_scale_changes_no_nms_or_ap_output(seed, k):
    dets, truths = random_set(seed)
    big_dets = [Detection(scaled(d.box, k), d.score, d.class_id) for d in dets]
    big_truths = [(scaled(b, k), c) for b, c in truths]

    c, big_c = corners(d.box for d in dets), corners(d.box for d in big_dets)
    for overlap in (box_iou, box_diou):
        assert np.array_equal(overlap(c[:, None], c[None, :]),
                              overlap(big_c[:, None], big_c[None, :])), overlap.__name__

    for name, suppress in SUPPRESSORS.items():
        assert as_rows(suppress(big_dets), k) == as_rows(suppress(dets)), name

    want = evaluate({1: dets}, {1: truths})
    got = evaluate({1: big_dets}, {1: big_truths})
    assert (got.ap, got.ap50, got.ap75) == (want.ap, want.ap50, want.ap75)


LOGIT = st.floats(-30.0, 30.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(-20, 20), s=st.sampled_from([1.0, 1.1, 2.0]),
       stride=st.sampled_from([8.0, 16.0, 32.0, 7.5]),
       sides=st.tuples(st.floats(0.5, 600.0), st.floats(0.5, 600.0)),
       logits=st.tuples(LOGIT, LOGIT, LOGIT, LOGIT, LOGIT),
       class_scores=st.lists(LOGIT, max_size=4).map(tuple),
       cell=st.tuples(st.integers(0, 12), st.integers(0, 12)))
@example(k=20, s=1.1, stride=32.0, sides=(600.0, 0.5), logits=(30.0, -30.0, 30.0, -30.0, 0.0),
         class_scores=(30.0, -30.0), cell=(12, 0))
@example(k=-20, s=2.0, stride=8.0, sides=(0.5, 600.0), logits=(-30.0, 30.0, -30.0, 30.0, 1.0),
         class_scores=(-30.0,), cell=(0, 12))
def test_power_of_two_stride_and_anchors_scale_the_decoded_box(
        k, s, stride, sides, logits, class_scores, cell):
    def config(scale):
        return DecodeConfig(13, 13, math.ldexp(stride, scale),
                            (Anchor(*(math.ldexp(v, scale) for v in sides)),), s)

    p = RawPrediction(*logits, class_scores=class_scores, cell=cell)
    want, got = decode(p, config(0)), decode(p, config(k))
    assert [math.ldexp(v, -k) for v in (got.box.x_c, got.box.y_c, got.box.w, got.box.h)] == \
        [want.box.x_c, want.box.y_c, want.box.w, want.box.h]
    assert got.objectness == want.objectness
    assert np.array_equal(got.class_probs, want.class_probs)
