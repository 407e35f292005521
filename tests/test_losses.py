import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detbag.geometry import Box, CenterBox, box_diou, box_iou, ciou, corners, diou, giou, iou
from detbag.losses import BoxLossResult, LossVariant, box_loss, label_smooth

VARIANTS = ("mse", "iou", "giou", "diou", "ciou")
IOU_FAMILY = (LossVariant.IOU, LossVariant.GIOU, LossVariant.DIOU, LossVariant.CIOU)


def vector_box_loss(p, t, variant: LossVariant):
    """The IoU-family derivation as 4-vector numpy expressions: the exact
    reference for `box_loss`, which forms the same terms on Python floats."""
    p = np.array(p, dtype=float)
    t = np.array(t, dtype=float)
    metric, grad = vector_metric_with_grad(p, t, variant)
    return 1.0 - metric, -grad


def vector_binding(hi, lo):
    # the flags are np.bool_, whose `+` is a logical or
    hi, lo = float(hi), float(lo)
    return hi - lo, 0.5 * (hi + lo)


def vector_metric_with_grad(p, t, variant):
    px, py, pw, ph = p
    tx, ty, tw, th = t
    px1, px2 = px - pw / 2, px + pw / 2
    py1, py2 = py - ph / 2, py + ph / 2
    tx1, tx2 = tx - tw / 2, tx + tw / 2
    ty1, ty2 = ty - th / 2, ty + th / 2

    ix1, ix2 = max(px1, tx1), min(px2, tx2)
    iy1, iy2 = max(py1, ty1), min(py2, ty2)
    iw, ih = ix2 - ix1, iy2 - iy1
    diw_x, diw_w = vector_binding(px2 < tx2, px1 > tx1)
    dih_y, dih_h = vector_binding(py2 < ty2, py1 > ty1)
    if iw > 0.0 and ih > 0.0:
        inter = iw * ih
        d_inter = np.array([ih * diw_x, iw * dih_y, ih * diw_w, iw * dih_h])
    else:
        inter = 0.0
        d_inter = np.zeros(4)

    union = pw * ph + tw * th - inter
    d_union = np.array([0.0, 0.0, ph, pw]) - d_inter
    iou = inter / union
    d_iou = (d_inter * union - inter * d_union) / (union * union)
    if variant is LossVariant.IOU:
        return iou, d_iou

    ex1, ex2 = min(px1, tx1), max(px2, tx2)
    ey1, ey2 = min(py1, ty1), max(py2, ty2)
    ew, eh = ex2 - ex1, ey2 - ey1
    dew_x, dew_w = vector_binding(px2 > tx2, px1 < tx1)
    deh_y, deh_h = vector_binding(py2 > ty2, py1 < ty1)

    if variant is LossVariant.GIOU:
        c = ew * eh
        d_c = np.array([eh * dew_x, ew * deh_y, eh * dew_w, ew * deh_h])
        giou = iou - (c - union) / c
        d_giou = d_iou + (d_union * c - union * d_c) / (c * c)
        return giou, d_giou

    rho2 = (px - tx) * (px - tx) + (py - ty) * (py - ty)
    d_rho2 = np.array([2 * (px - tx), 2 * (py - ty), 0.0, 0.0])
    c2 = ew * ew + eh * eh
    d_c2 = np.array([2 * ew * dew_x, 2 * eh * deh_y, 2 * ew * dew_w, 2 * eh * deh_h])
    diou = iou - rho2 / c2
    d_diou = d_iou - (d_rho2 * c2 - rho2 * d_c2) / (c2 * c2)
    if variant is LossVariant.DIOU:
        return diou, d_diou

    delta = math.atan(tw / th) - math.atan(pw / ph)
    v = 4.0 / math.pi**2 * delta * delta
    alpha = v / (1.0 - iou + v) if v > 0.0 else 0.0
    s = pw * pw + ph * ph
    d_v = np.array([0.0, 0.0,
                    -8.0 / math.pi**2 * delta * ph / s,
                    8.0 / math.pi**2 * delta * pw / s])
    return diou - alpha * v, d_diou - alpha * d_v


def loss_value(p, t, variant, alpha_override=None):
    """Straight-line transcription of each loss, kept independent of the
    library so it can serve as the finite-difference oracle. For ciou the
    alpha coefficient can be pinned, matching its constant treatment."""
    px, py, pw, ph = p
    tx, ty, tw, th = t
    if variant == "mse":
        return sum((a - b) ** 2 for a, b in zip(p, t))
    px1, px2, py1, py2 = px - pw / 2, px + pw / 2, py - ph / 2, py + ph / 2
    tx1, tx2, ty1, ty2 = tx - tw / 2, tx + tw / 2, ty - th / 2, ty + th / 2
    iw = min(px2, tx2) - max(px1, tx1)
    ih = min(py2, ty2) - max(py1, ty1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = pw * ph + tw * th - inter
    iou = inter / union
    if variant == "iou":
        return 1.0 - iou
    ew = max(px2, tx2) - min(px1, tx1)
    eh = max(py2, ty2) - min(py1, ty1)
    if variant == "giou":
        c = ew * eh
        return 1.0 - (iou - (c - union) / c)
    rho2 = (px - tx) ** 2 + (py - ty) ** 2
    diou = iou - rho2 / (ew * ew + eh * eh)
    if variant == "diou":
        return 1.0 - diou
    delta = math.atan(tw / th) - math.atan(pw / ph)
    v = 4.0 / math.pi**2 * delta * delta
    alpha = alpha_override
    if alpha is None:
        alpha = v / (1.0 - iou + v) if v > 0 else 0.0
    return 1.0 - (diou - alpha * v)


def fd_grad(p, t, variant, h=1e-5):
    alpha = None
    if variant == "ciou":
        # pin alpha at the center point, matching its constant treatment
        px, py, pw, ph = p
        tx, ty, tw, th = t
        delta = math.atan(tw / th) - math.atan(pw / ph)
        v = 4.0 / math.pi**2 * delta * delta
        iou = 1.0 - loss_value(p, t, "iou")
        alpha = v / (1.0 - iou + v) if v > 0 else 0.0
    g = np.zeros(4)
    for i in range(4):
        hi, lo = list(p), list(p)
        hi[i] += h
        lo[i] -= h
        g[i] = (loss_value(hi, t, variant, alpha)
                - loss_value(lo, t, variant, alpha)) / (2 * h)
    return g


def random_pair(rng):
    p = [*rng.uniform(-5, 5, 2), *rng.uniform(0.1, 10, 2)]
    t = [*rng.uniform(-5, 5, 2), *rng.uniform(0.1, 10, 2)]
    return p, t


def integer_pair(rng):
    """Boxes with integer corners in a 6 x 6 frame, so that edges often
    coincide and the subgradient tie rules decide the gradient."""
    def box():
        x1, y1 = rng.integers(0, 5, 2)
        w, h = rng.integers(1, 6 - x1), rng.integers(1, 6 - y1)
        return [float(x1 + w / 2), float(y1 + h / 2), float(w), float(h)]
    return box(), box()


def check_gradients(variant, n, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        p, t = random_pair(rng)
        res = box_loss(CenterBox(*p), CenterBox(*t), variant)
        fd = fd_grad(p, t, variant)
        err = np.max(np.abs(res.grad - fd)) / max(1.0, np.max(np.abs(fd)))
        worst = max(worst, err)
        assert err < tol, (variant, p, t, res.grad, fd)
    return worst


class TestBoxLoss:
    def test_identity_is_zero(self):
        b = CenterBox(1.0, 2.0, 3.0, 4.0)
        for variant in VARIANTS:
            res = box_loss(b, b, variant)
            assert res.value == pytest.approx(0.0, abs=1e-12)
            assert np.isfinite(res.grad).all()

    def test_mse_example(self):
        res = box_loss(CenterBox(0, 0, 2, 2), CenterBox(1, 0, 2, 2), "mse")
        assert res.value == 1.0
        # loss falls when pred moves toward the truth, so d/dx is negative;
        # the finite-difference oracle is the arbiter of the sign
        assert np.allclose(res.grad, [-2.0, 0.0, 0.0, 0.0])
        assert np.allclose(fd_grad([0, 0, 2, 2], [1, 0, 2, 2], "mse"),
                           [-2.0, 0.0, 0.0, 0.0])

    def test_ciou_frozen_example(self):
        res = box_loss(CenterBox(1, 1, 2, 2), CenterBox(2, 2, 2, 2), "ciou")
        assert res.value == pytest.approx(0.9682539682539683, abs=1e-12)
        assert np.allclose(
            res.grad,
            [-0.23733938019652304, -0.23733938019652304,
             -0.05933484504913076, -0.05933484504913076], atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_match_finite_differences(self, variant):
        check_gradients(variant, n=300, seed=23)

    def test_nonnegative_and_zero_only_at_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p, t = random_pair(rng)
            for variant in ("mse", "iou", "giou", "diou"):
                value = box_loss(CenterBox(*p), CenterBox(*t), variant).value
                assert value >= 0.0
                if p != t:
                    assert value > 0.0

    def test_loss_ordering(self):
        rng = np.random.default_rng(31)
        eps = 1e-12
        for _ in range(300):
            p, t = random_pair(rng)
            li = box_loss(CenterBox(*p), CenterBox(*t), "iou").value
            ld = box_loss(CenterBox(*p), CenterBox(*t), "diou").value
            lc = box_loss(CenterBox(*p), CenterBox(*t), "ciou").value
            assert lc >= ld - eps >= li - 2 * eps

    @pytest.mark.parametrize("variant", IOU_FAMILY, ids=lambda v: v.value)
    @pytest.mark.parametrize("make_pair,n", [(random_pair, 3000), (integer_pair, 500)],
                             ids=["random", "integer"])
    def test_equals_vector_derivation_bit_for_bit(self, variant, make_pair, n):
        rng = np.random.default_rng(41)
        for _ in range(n):
            p, t = make_pair(rng)
            want_value, want_grad = vector_box_loss(p, t, variant)
            for name in (variant, variant.value, variant.value.upper()):
                res = box_loss(CenterBox(*p), CenterBox(*t), name)
                assert type(res.value) is float
                assert res.value == want_value, (p, t)
                assert res.grad.dtype == np.float64 and res.grad.shape == (4,)
                assert np.array_equal(res.grad, want_grad), (p, t)
                assert np.array_equal(np.signbit(res.grad), np.signbit(want_grad)), (p, t)

    def test_grad_is_a_fresh_array(self):
        p, t = CenterBox(1, 1, 2, 2), CenterBox(2, 2, 2, 2)
        for variant in VARIANTS:
            a, b = box_loss(p, t, variant), box_loss(p, t, variant)
            assert a.grad.flags.owndata and a.grad.flags.writeable
            assert not np.shares_memory(a.grad, b.grad)

    def test_variant_enum_accepted(self):
        for variant in (LossVariant.GIOU, "GIoU", "giou"):
            res = box_loss(CenterBox(0, 0, 1, 1), CenterBox(0, 0, 1, 1), variant)
            assert isinstance(res, BoxLossResult)

    @pytest.mark.parametrize("variant", [None, 3, "", "cio", "LossVariant.CIOU"])
    def test_unknown_variant_rejected(self, variant):
        with pytest.raises(ValueError, match="unknown loss variant"):
            box_loss(CenterBox(0, 0, 1, 1), CenterBox(0, 0, 1, 1), variant)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            box_loss(CenterBox(float("nan"), 0, 1, 1), CenterBox(0, 0, 1, 1), "mse")

    def test_overflowing_area_rejected(self):
        # such a box was once accepted, and every variant's value and gradient were NaN
        with pytest.raises(ValueError, match="non-finite box or area"):
            box_loss(CenterBox(0, 0, 1e200, 1e200), CenterBox(0, 0, 1e200, 1e200), "ciou")

    # a union over about 1.3e154 squares past the float range, and one under
    # about 1e-162 squares to 0; each loss names both boxes
    @pytest.mark.parametrize("variant", IOU_FAMILY, ids=lambda v: v.value)
    @pytest.mark.parametrize("side", [1e154, 1e-160], ids=["over", "under"])
    def test_square_outside_the_float_range_rejected(self, variant, side):
        pred, truth = CenterBox(0, 0, side, side / 10), CenterBox(side / 4, 0, side, side / 10)
        with pytest.raises(ValueError, match=re.escape(
                f"{variant.value} loss leaves the float range: {pred}, {truth}")):
            box_loss(pred, truth, variant)

    # the sum of squares, or a difference itself, past the float range; with
    # warnings as errors, numpy's overflow warning would fail the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pred,truth", [
        (CenterBox(1e200, 0, 1, 1), CenterBox(0, 0, 1, 1)),
        (CenterBox(1.7e308, 0, 1, 1), CenterBox(-1.7e308, 0, 1, 1))], ids=["square", "difference"])
    def test_mse_outside_the_float_range_rejected(self, pred, truth):
        with pytest.raises(ValueError, match=re.escape(
                f"mse loss leaves the float range: {pred}, {truth}")):
            box_loss(pred, truth, "mse")

    def test_mse_near_the_float_range_keeps_its_value(self):
        pred, truth = CenterBox(1e154, 0, 1, 1), CenterBox(0, 0, 1, 1)
        diff = np.array([1e154, 0.0, 0.0, 0.0])
        res = box_loss(pred, truth, "mse")
        assert res.value == float(diff @ diff) == 1e154 * 1e154
        assert np.array_equal(res.grad, 2.0 * diff)

    # CIoU's aspect term divides by pw * pw + ph * ph, which underflows to 0
    # for the first prediction and is subnormal for the second; the other
    # variants score both pairs
    @pytest.mark.parametrize("pred", [CenterBox(0, 0, 1e-170, 1e-170),
                                      CenterBox(0, 0, 1e-160, 2e-160)], ids=["zero", "subnormal"])
    def test_ciou_aspect_square_outside_the_float_range_rejected(self, pred):
        truth = CenterBox(0, 0, 1, 1)
        for variant in ("iou", "giou", "diou"):
            assert math.isfinite(box_loss(pred, truth, variant).value)
        with pytest.raises(ValueError, match=re.escape(
                f"ciou loss leaves the float range: {pred}, {truth}")):
            box_loss(pred, truth, "ciou")

    def test_gradient_past_the_float_range_rejected(self):
        # every square is normal, but GIoU's d(union) * c is 2e253 * 1e55 = inf
        pred, truth = CenterBox(1e253, 2.5e-199, 2e253, 5e-199), CenterBox(0.5, 2.5e-199, 1, 5e-199)
        assert math.isfinite(box_loss(pred, truth, "iou").grad[3])
        with pytest.raises(ValueError, match=re.escape(
                f"giou loss leaves the float range: {pred}, {truth}")):
            box_loss(pred, truth, "giou")

    def test_zero_size_pred_rejected_for_iou_family(self):
        with pytest.raises(ValueError):
            box_loss(CenterBox(0, 0, 0, 1), CenterBox(0, 0, 1, 1), "iou")
        # but fine under mse
        box_loss(CenterBox(0, 0, 0, 1), CenterBox(0, 0, 1, 1), "mse")

    def test_zero_size_truth_rejected(self):
        with pytest.raises(ValueError):
            box_loss(CenterBox(0, 0, 1, 1), CenterBox(0, 0, 0, 1), "mse")


# unit-scale centres, 0 or at least 2**-20 in magnitude so that every k
# below scales them and their differences exactly, and sides in [0.5, 10]
UNIT = st.just(0.0) | st.floats(2.0**-20, 10.0) | st.floats(-10.0, -(2.0**-20))
SIDE = st.floats(0.5, 10.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.tuples(UNIT, UNIT, SIDE, SIDE), t=st.tuples(UNIT, UNIT, SIDE, SIDE),
       k=st.integers(-300, 300), variant=st.sampled_from(IOU_FAMILY))
@example(p=(0.0, 0.0, 1.0, 1.0), t=(0.5, 0.25, 1.0, 2.0), k=300, variant=LossVariant.CIOU)
@example(p=(0.0, 0.0, 1.0, 1.0), t=(0.5, 0.25, 1.0, 2.0), k=-300, variant=LossVariant.GIOU)
@example(p=(0.0, 0.0, 10.0, 10.0), t=(-10.0, 10.0, 10.0, 10.0), k=250, variant=LossVariant.DIOU)
@example(p=(0.0, 0.0, 0.5, 0.5), t=(0.0, 0.0, 0.5, 0.5), k=-250, variant=LossVariant.IOU)
def test_power_of_two_scale_exact(p, t, k, variant):
    """box_loss(2**k p, 2**k t) has the value of box_loss(p, t) and 2**-k
    times its gradient, exactly, wherever it returns; it returns for
    |k| <= 250 and otherwise may raise ValueError, not a wrong value."""
    base = box_loss(CenterBox(*p), CenterBox(*t), variant)
    try:
        scaled = box_loss(CenterBox(*(math.ldexp(v, k) for v in p)),
                          CenterBox(*(math.ldexp(v, k) for v in t)), variant)
    except ValueError as exc:
        assert abs(k) > 250 and "leaves the float range" in str(exc)
        return
    assert scaled.value == base.value
    assert np.array_equal(np.ldexp(scaled.grad, k), base.grad)


# corners anywhere in the float range, near unit scale and near the
# squares' limits; sides from 0 to past the area bound, which `Box` applies
COORD = st.floats(-1.7e308, 1.7e308) | st.floats(-1e3, 1e3) | st.floats(-1e160, 1e160)
SIDE_ANY = (st.just(0.0) | st.floats(0.0, 1.7e308) | st.floats(0.0, 10.0)
            | st.floats(0.0, 1e-150))


@st.composite
def accepted_boxes(draw):
    """A `Box` that `Box` accepts, of Python or `np.float64` coordinates."""
    x, y, w, h = draw(COORD), draw(COORD), draw(SIDE_ANY), draw(SIDE_ANY)
    cast = np.float64 if draw(st.booleans()) else float
    try:
        return Box(*map(cast, (x, y, x + w, y + h)))
    except ValueError:
        assume(False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(a=accepted_boxes(), b=accepted_boxes())
@example(a=Box(1e200, 0.0, 1e200, 1.0), b=Box(0.0, 0.0, 1.0, 1.0))  # the MSE sum overflows
@example(a=Box(np.float64(1.7e308), 0.0, np.float64(1.7e308), 1.0),  # the centre sum does
         b=Box(0.0, 0.0, 1.0, 1.0))
@example(a=Box(-5e-171, -5e-171, 5e-171, 5e-171), b=Box(-0.5, -0.5, 0.5, 0.5))  # CIoU's aspect
@example(a=Box(-5e-161, -1e-160, 5e-161, 1e-160), b=Box(-0.5, -0.5, 0.5, 0.5))  # square
@example(a=Box(0.0, 0.0, 2e253, 5e-199), b=Box(0.0, 0.0, 1.0, 5e-199))  # a GIoU gradient term
@example(a=Box(1e308, 0.0, 1.5e308, 1.0), b=Box(0.0, 0.0, 1.0, 1.0))  # centre sums past
@example(a=Box(1.7e308, 0.0, 1.7e308, 1.0), b=Box(1e308, 0.0, 1.5e308, 1.0))  # the float range
def test_accepted_pairs_finite_or_value_error(a, b):
    """Every metric of two accepted boxes is finite, with no numpy warning;
    both have centre forms, and every loss on them is finite or raises ValueError."""
    for metric in (iou, giou, diou, ciou):
        assert math.isfinite(metric(a, b))
    ca, cb = corners([a]), corners([b])
    assert np.isfinite(box_iou(ca, cb)).all() and np.isfinite(box_diou(ca, cb)).all()
    pred, truth = a.to_center(), b.to_center()
    for variant in VARIANTS:
        try:
            res = box_loss(pred, truth, variant)
        except ValueError:
            continue
        assert math.isfinite(res.value) and np.isfinite(res.grad).all()


class TestLabelSmooth:
    def test_zero_epsilon_identity(self):
        v = np.array([0.0, 1.0, 0.0])
        assert np.array_equal(label_smooth(v, 0.0), v)

    def test_two_class_example(self):
        assert np.allclose(label_smooth(np.array([1.0, 0.0]), 0.1), [0.95, 0.05])

    def test_uniform_fixed_point(self):
        for k in (2, 5, 10):
            v = np.full(k, 1.0 / k)
            assert np.allclose(label_smooth(v, 0.3), v)

    def test_sums_to_one_and_keeps_argmax(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            k = int(rng.integers(2, 12))
            v = rng.dirichlet(np.ones(k))
            eps = float(rng.uniform(0.0, (k - 1) / k - 1e-6))
            out = label_smooth(v, eps)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            assert out.argmax() == v.argmax()

    def test_epsilon_range_enforced(self):
        for eps in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                label_smooth(np.array([1.0, 0.0]), eps)

    @pytest.mark.parametrize("onehot,match", [
        (np.array(1.0), r"shape \(\)"),
        (np.zeros((3, 0)), r"shape \(3, 0\)"),
        (np.array([1.0, math.nan]), "non-finite"),
        (np.array([[1.0, 0.0], [0.0, math.inf]]), "non-finite")],
        ids=["0-d", "empty-last-axis", "nan", "inf"])
    def test_bad_onehot_rejected(self, onehot, match):
        with pytest.raises(ValueError, match=match):
            label_smooth(onehot, 0.1)
