import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detbag.decode import Anchor
from detbag.evolve import anchor_recall, kmeans_anchors
from detbag.geometry import (MAX_SHAPE_AREA, Box, CenterBox, box_diou, box_iou, ciou,
                             corners, diou, giou, iou)

METRICS = (iou, giou, diou, ciou)
# (kernel, scalar reference, allowed gap): each kernel equals its scalar exactly
KERNELS = ((box_iou, iou, 0.0), (box_diou, diou, 0.0))

# identical, edge-touching, corner-touching, disjoint, nested, zero-area
# inside a box, and two coincident points (empty union)
EDGE_PAIRS = (
    (Box(0, 0, 1, 1), Box(0, 0, 1, 1)),
    (Box(0, 0, 1, 1), Box(1, 0, 2, 1)),
    (Box(0, 0, 1, 1), Box(1, 1, 2, 2)),
    (Box(0, 0, 1, 1), Box(2, 2, 3, 3)),
    (Box(-4, -3, 4, 3), Box(-2, -1, 2, 1)),
    (Box(0, 0, 2, 2), Box(1, 0, 1, 2)),
    (Box(1, 1, 1, 1), Box(1, 1, 1, 1)),
)

# disjoint boxes 2e200 apart
FAR_PAIR = (Box(-1e200, 0, -1e200 + 1e185, 1), Box(1e200, 0, 1e200 + 1e185, 1))
# accepted boxes near the float range: the first pair's enclosing width and
# centre offset overflow, the second box's centre sum does, and so do the
# third pair's, whose squared enclosing diagonal is small
RANGE_PAIRS = [(Box(1.6e308, 0, 1.7e308, 1), Box(-1.7e308, 0, -1.6e308, 1)),
               (Box(1e308, 0, 1.5e308, 1), Box(1e308, 0, 1.5e308, 1)),
               (Box(1.7e308, 0, 1.7e308, 1), Box(1.7e308, 0, 1.7e308, 2))]


# accepted boxes whose enclosing width overflows: GIoU's enclosing area is inf
GIOU_RANGE_PAIR = (Box(-1.7e308, 0, -1.6e308, 1), Box(1.6e308, 0, 1.7e308, 1))


def box_accepts(x_min, y_min, x_max, y_max) -> bool:
    """`Box`'s check as written out before `geometry` held the shape rule in
    one helper: the oracle for float coordinates. Chained comparisons are
    False for NaN; an overflowing side makes the area inf or NaN."""
    return (-math.inf < x_min <= x_max < math.inf and -math.inf < y_min <= y_max < math.inf
            and (x_max - x_min) * (y_max - y_min) <= MAX_SHAPE_AREA)


def center_box_accepts(x_c, y_c, w, h) -> bool:
    """`CenterBox`'s check as written out before the shape-rule helper."""
    return (-math.inf < x_c < math.inf and -math.inf < y_c < math.inf
            and 0 <= w < math.inf and 0 <= h < math.inf and w * h <= MAX_SHAPE_AREA)


def reference_far_offsets(a: Box, b: Box):
    """The scalar far-range branch of DIoU, as `_diou` wrote it before the
    array helper: the enclosing sides and centre offsets of the halved boxes,
    scaled by the power of two that brings the longer side into [0.5, 1),
    and e, the power of two that scales the unhalved boxes alike."""
    ha = [v / 2.0 for v in (a.x_min, a.y_min, a.x_max, a.y_max)]
    hb = [v / 2.0 for v in (b.x_min, b.y_min, b.x_max, b.y_max)]
    ew = max(ha[2], hb[2]) - min(ha[0], hb[0])
    eh = max(ha[3], hb[3]) - min(ha[1], hb[1])
    dx = (ha[0] + ha[2]) / 2.0 - (hb[0] + hb[2]) / 2.0
    dy = (ha[1] + ha[3]) / 2.0 - (hb[1] + hb[3]) / 2.0
    e = -math.frexp(max(ew, eh))[1]
    return [math.ldexp(v, e) for v in (ew, eh, dx, dy)], e - 1


def reference_diou(a: Box, b: Box) -> float:
    """Straight-line DIoU, taking the far branch only when a squared term
    is not finite."""
    i = iou(a, b)
    ew = max(a.x_max, b.x_max) - min(a.x_min, b.x_min)
    eh = max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    c2 = ew * ew + eh * eh
    if c2 <= 0.0:
        return i
    dx = (a.x_min + a.x_max) / 2.0 - (b.x_min + b.x_max) / 2.0
    dy = (a.y_min + a.y_max) / 2.0 - (b.y_min + b.y_max) / 2.0
    rho2 = dx * dx + dy * dy
    if c2 == math.inf or not math.isfinite(rho2):
        (ew, eh, dx, dy), _ = reference_far_offsets(a, b)
        c2, rho2 = ew * ew + eh * eh, dx * dx + dy * dy
    return i - rho2 / c2


def reference_giou(a: Box, b: Box) -> float:
    """Straight-line GIoU. Where the enclosing area overflows, union / c is
    the union times 2**e over the far branch's scaled longer side, then over
    the unscaled shorter side; an inf times 0 area scores the IoU, as 0 does."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    union = a.area + b.area - inter
    i = inter / union if union > 0.0 else 0.0
    ew = max(a.x_max, b.x_max) - min(a.x_min, b.x_min)
    eh = max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    c = ew * eh
    if math.isnan(c) or c <= 0.0:
        return i
    if c == math.inf:
        (sw, sh, _, _), e = reference_far_offsets(a, b)
        return i - (1.0 - math.ldexp(union, e) / max(sw, sh) / min(ew, eh))
    return i - (c - union) / c


def range_pairs(seed: int, n: int) -> list[tuple[Box, Box]]:
    """n seeded pairs of accepted boxes anywhere in the float range, widths
    up to 1e308 and heights up to 0.5; most pairs take the far branch."""
    rng = np.random.default_rng(seed)

    def box():
        x = float(rng.uniform(-1.0, 1.0)) * 1.7e308
        w = min(float(rng.uniform(0.0, 1.0)) * 1e308, sys.float_info.max - x)
        y, h = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 0.5))
        return Box(x, y, x + w, y + h)
    return [(box(), box()) for _ in range(n)]


def exact_giou(a: Box, b: Box) -> float:
    """GIoU of the boxes' float corners in rational arithmetic, rounded once."""
    xa, ya, xa2, ya2 = map(Fraction, (a.x_min, a.y_min, a.x_max, a.y_max))
    xb, yb, xb2, yb2 = map(Fraction, (b.x_min, b.y_min, b.x_max, b.y_max))
    iw, ih = min(xa2, xb2) - max(xa, xb), min(ya2, yb2) - max(ya, yb)
    inter = iw * ih if iw > 0 and ih > 0 else 0
    union = (xa2 - xa) * (ya2 - ya) + (xb2 - xb) * (yb2 - yb) - inter
    c = (max(xa2, xb2) - min(xa, xb)) * (max(ya2, yb2) - min(ya, yb))
    i = inter / union if union > 0 else 0
    return float(i - (c - union) / c if c > 0 else i)


def raster_iou(a: Box, b: Box, extent: int = 24) -> float:
    """Unit-cell counting oracle for integer-coordinate boxes."""
    ga = np.zeros((extent, extent), dtype=bool)
    gb = np.zeros((extent, extent), dtype=bool)
    ga[int(a.y_min):int(a.y_max), int(a.x_min):int(a.x_max)] = True
    gb[int(b.y_min):int(b.y_max), int(b.x_min):int(b.x_max)] = True
    union = (ga | gb).sum()
    if union == 0:
        return 0.0
    return (ga & gb).sum() / union


def random_box(rng, lo=-5.0, hi=5.0, max_side=10.0) -> Box:
    x, y = rng.uniform(lo, hi, 2)
    w, h = rng.uniform(0.0, max_side, 2)
    return Box(x, y, x + w, y + h)


def random_int_box(rng, extent=20) -> Box:
    x1, x2 = sorted(rng.integers(0, extent + 1, 2))
    y1, y2 = sorted(rng.integers(0, extent + 1, 2))
    return Box(float(x1), float(y1), float(x2), float(y2))


class TestConvert:
    def test_corner_to_center(self):
        assert Box(0, 0, 2, 4).to_center() == CenterBox(1, 2, 2, 4)

    def test_zero_size(self):
        assert CenterBox(1, 1, 0, 0).to_corner() == Box(1, 1, 1, 1)

    def test_symmetric_about_origin(self):
        assert Box(-1, -1, 1, 1).to_center() == CenterBox(0, 0, 2, 2)

    @pytest.mark.filterwarnings("error")
    def test_centre_is_the_rounded_midpoint(self):
        """The centre is (lo + hi) / 2 wherever that sum is finite, and past
        the float range the correctly rounded midpoint, not a ValueError."""
        fmax = sys.float_info.max
        values = (-fmax, -1.7e308, -1e308, -1.0, -0.0, 5e-324, 1.0, 1e308, 1.5e308, 1.7e308, fmax)
        for lo, hi in itertools.product(values, repeat=2):
            if lo > hi or not math.isfinite(hi - lo):
                continue
            centre = Box(lo, 0.0, hi, 0.5).to_center()
            if math.isfinite(lo + hi):
                assert centre.x_c == (lo + hi) / 2
            else:
                assert centre.x_c == float((Fraction(lo) + Fraction(hi)) / 2)
            assert centre.y_c == 0.25 and centre.w == hi - lo
        assert Box(1e308, 0, 1.5e308, 1).to_center() == CenterBox(1.25e308, 0.5, 5e307, 1)
        assert Box(0, -1.7e308, 1, -1.7e308).to_center() == CenterBox(0.5, -1.7e308, 1, 0.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            b = random_box(rng)
            r = b.to_center().to_corner()
            for got, want in zip(
                    (r.x_min, r.y_min, r.x_max, r.y_max),
                    (b.x_min, b.y_min, b.x_max, b.y_max)):
                assert abs(got - want) < 1e-12

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            Box(1, 0, 0, 1)
        with pytest.raises(ValueError):
            CenterBox(0, 0, -1, 1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", range(4))
    def test_non_finite_rejected(self, value, field):
        coords = [0.0, 0.0, 1.0, 1.0]
        coords[field] = value
        with pytest.raises(ValueError, match="degenerate"):
            Box(*coords)
        with pytest.raises(ValueError, match="non-finite"):
            CenterBox(*coords)

    @pytest.mark.parametrize("coords", [
        (0.0, 0.0, 1e308, 1e308),    # finite sides, area overflows
        (-1e308, 0.0, 1e308, 1.0),   # the width itself overflows
        (-1e308, 0.0, 1e308, 0.0),   # inf * 0 area is NaN
        (0.0, -1e308, 0.0, 1e308)])
    def test_overflowing_area_rejected(self, coords):
        with pytest.raises(ValueError, match="non-finite box or area"):
            Box(*coords)

    def test_large_finite_area_accepted(self):
        side = 2.0**511  # side * (MAX_SHAPE_AREA / side) is MAX_SHAPE_AREA exactly
        assert Box(0.0, 0.0, side, MAX_SHAPE_AREA / side).area == MAX_SHAPE_AREA
        assert CenterBox(0.0, 0.0, side, MAX_SHAPE_AREA / side).area == MAX_SHAPE_AREA

    # areas above MAX_SHAPE_AREA, finite or not; with the first two, the
    # union of two boxes overflows although each area is finite
    @pytest.mark.parametrize("w,h", [(1e154, 1e154), (2.0**511, MAX_SHAPE_AREA / 2.0**510),
                                     (1e200, 1e200)])
    def test_area_above_bound_rejected(self, w, h):
        with pytest.raises(ValueError, match="non-finite box or area"):
            Box(0.0, 0.0, w, h)
        with pytest.raises(ValueError, match="non-finite box or area"):
            CenterBox(0.0, 0.0, w, h)

    @pytest.mark.parametrize("make", [
        lambda: Anchor(10**400, 1.0),
        lambda: Box(0.0, 0.0, 10**400, 1.0),
        lambda: Box(-10**400, 0, 10**400, 0),
        lambda: Box(-10**400, 0.0, 0.0, 1.0),
        lambda: CenterBox(10**400, 0.0, 1.0, 1.0),
        lambda: CenterBox(0.0, 0.0, 1.0, 10**400),
        lambda: anchor_recall([[10**400, 1.0]], [Anchor(1.0, 1.0)], 0.5),
        lambda: kmeans_anchors([[10**400, 1]], 1, rng=np.random.default_rng(0))],
        ids=["anchor", "box-side", "box-corners", "box-low-corner", "center", "center-side", "recall", "kmeans"])
    def test_int_past_the_float_range_rejected(self, make):
        # an int compares exactly with the float max, as inf does, and is
        # never converted to a float that would raise OverflowError
        with pytest.raises(ValueError):
            make()

    def test_edge_grid_accepts_what_the_written_out_checks_accept(self):
        fmax = sys.float_info.max
        values = (-math.inf, -fmax, -1.7e308, -1e308, -1e154, -1.0, -0.0, 0.0, 5e-324,
                  1.0, 2.0**511, 1e154, 1e200, 1e308, 1.7e308, fmax, math.inf, math.nan)

        def accepts(cls, t):
            try:
                cls(*t)
                return True
            except ValueError:
                return False
        for cls, oracle in ((Box, box_accepts), (CenterBox, center_box_accepts)):
            differ = [t for t in itertools.product(values, repeat=4)
                      if accepts(cls, t) != oracle(*t)]
            assert differ == [], cls.__name__

    def test_numpy_sides_do_not_warn(self):
        big = np.float64(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make in (lambda: Box(np.float64(0.0), 0.0, big, big),
                         lambda: CenterBox(np.float64(0.0), 0.0, big, big)):
                with pytest.raises(ValueError, match="non-finite box or area"):
                    make()
            assert CenterBox(0.0, 0.0, big, np.float64(1.0)).area == 1e200

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
    def test_numpy_coordinates_refused_as_python_floats(self):
        big = np.float64(1.7e308)
        with pytest.raises(ValueError, match="degenerate"):
            Box(-big, 0, big, 1)  # the width overflows
        # the centre sum overflows, so both corners halve first
        assert Box(big, 0.0, big, 1.0).to_center() == CenterBox(big, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            CenterBox(-big, 0.0, np.float64(8e307), 1.0).to_corner()

    @pytest.mark.filterwarnings("error")
    def test_numpy_coordinates_convert_as_python_floats(self):
        """Boxes of `np.float64` coordinates are accepted, and convert to
        each other's form, exactly where the same Python floats are."""
        fmax = sys.float_info.max
        values = (-fmax, -1.7e308, -1.0, -0.0, 5e-324, 1.0, 1e154, 1e308, fmax)

        def outcome(make):
            try:
                box = make()
            except ValueError:
                return None
            return [float(v) for v in vars(box).values()]
        for t in itertools.product(values, repeat=4):
            n = [np.float64(v) for v in t]
            for cls, convert in ((Box, Box.to_center), (CenterBox, CenterBox.to_corner)):
                assert outcome(lambda: cls(*n)) == outcome(lambda: cls(*t))
                assert outcome(lambda: convert(cls(*n))) == outcome(lambda: convert(cls(*t)))

    def test_largest_box_scores_one_against_itself(self):
        side = 2.0**511
        for big in (Box(0.0, 0.0, side, MAX_SHAPE_AREA / side),
                    Box(-side, 0.0, 0.0, MAX_SHAPE_AREA / side)):
            assert [metric(big, big) for metric in METRICS] == [1.0] * len(METRICS)
            assert box_iou(corners([big]), corners([big])).tolist() == [1.0]


class TestIou:
    def test_identity(self):
        assert iou(Box(0, 0, 1, 1), Box(0, 0, 1, 1)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 0.0

    def test_one_seventh(self):
        a, b = Box(0, 0, 2, 2), Box(1, 1, 3, 3)
        assert abs(iou(a, b) - raster_iou(a, b)) < 1e-9
        assert abs(iou(a, b) - 1 / 7) < 1e-12

    def test_empty_union_defined_zero(self):
        assert iou(Box(1, 1, 1, 1), Box(1, 1, 1, 1)) == 0.0

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
    def test_kernel_intersection_past_the_float_range(self):
        # accepted boxes whose intersection width, min(x_max) - max(x_min), overflows
        a, b = Box(-1.7e308, 0, -1.6e308, 1), Box(1.6e308, 0, 1.7e308, 1)
        for x, y in ((a, b), (b, a)):
            assert box_iou(corners([x])[0], corners([y])[0]) == iou(x, y) == 0.0

    def test_matches_rasterization(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a, b = random_int_box(rng), random_int_box(rng)
            assert abs(iou(a, b) - raster_iou(a, b)) < 1e-9


class TestGiou:
    def test_identity(self):
        assert giou(Box(0, 0, 1, 1), Box(0, 0, 1, 1)) == 1.0

    def test_disjoint_penalty(self):
        # enclosing box (0,0,3,3): area 9, union 2
        assert abs(giou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) - (-7 / 9)) < 1e-12

    def test_asymptotic_lower_bound(self):
        far = 1e4
        assert giou(Box(0, 0, 2, 2), Box(far, far, far + 2, far + 2)) < -0.99


class TestDiou:
    def test_identity(self):
        assert diou(Box(0, 0, 1, 1), Box(0, 0, 1, 1)) == 1.0

    def test_disjoint_value(self):
        # centers (0.5,0.5) and (2.5,2.5): rho2 = 8; diagonal^2 = 18
        assert abs(diou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) - (-4 / 9)) < 1e-12

    def test_concentric_equals_iou(self):
        a, b = Box(-2, -1, 2, 1), Box(-4, -3, 4, 3)
        assert diou(a, b) == iou(a, b)

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
    def test_far_apart_pair_is_finite(self):
        # every side is finite, but the squared enclosing diagonal is not
        a, b = FAR_PAIR
        want = -(2e200 / (2e200 + 1e185)) ** 2
        for metric in (diou, ciou):  # same aspect ratio: no CIoU aspect term
            assert metric(a, b) == pytest.approx(want, rel=1e-15)
            assert metric(b, a) == metric(a, b)
        assert box_diou(corners([a])[0], corners([b])[0]) == diou(a, b)

    @pytest.mark.filterwarnings("error")
    def test_far_apart_kernel_equals_scalar(self):
        # the near pairs of the same matrix keep their unscaled values
        boxes = [*FAR_PAIR, Box(0, 0, 1, 1), Box(2, 2, 3, 3), Box(1e200, 0, 1e200 + 2e185, 3)]
        arr = corners(boxes)
        m = box_diou(arr[:, None], arr[None, :])
        assert m.tolist() == [[diou(x, y) for y in boxes] for x in boxes]
        assert np.isfinite(m).all()

    @pytest.mark.filterwarnings("error")
    def test_near_the_float_range_finite(self):
        (a, b), (c, _), (e, f) = RANGE_PAIRS
        # centres at +-1.65e308 in an enclosing width of 3.4e308
        assert diou(a, b) == pytest.approx(-(3.3 / 3.4) ** 2, rel=1e-15)
        assert diou(c, c) == ciou(c, c) == 1.0
        # zero-width boxes: centres 0.5 apart in height, enclosing diagonal 2
        assert diou(e, f) == -(0.5**2) / 2**2 == -1 / 16
        for x, y in RANGE_PAIRS:
            for p, q in ((x, y), (y, x)):
                assert math.isfinite(ciou(p, q))
                assert box_diou(corners([p])[0], corners([q])[0]) == diou(p, q)

    @pytest.mark.filterwarnings("error")
    def test_near_the_float_range_kernel_equals_scalar(self):
        boxes = [box for pair in RANGE_PAIRS for box in pair] + [*FAR_PAIR, Box(0, 0, 1, 1)]
        arr = corners(boxes)
        m = box_diou(arr[:, None], arr[None, :])
        assert m.tolist() == [[diou(x, y) for y in boxes] for x in boxes]
        assert np.isfinite(m).all()


class TestFarRange:
    """DIoU and GIoU of pairs whose squared or enclosing terms overflow,
    against the scalar reference branch kept above."""

    @pytest.mark.filterwarnings("error")
    def test_far_pairs_equal_the_reference(self):
        pairs = [FAR_PAIR, GIOU_RANGE_PAIR, *RANGE_PAIRS, *range_pairs(3, 300)]
        for a, b in pairs + [(b, a) for a, b in pairs]:
            assert diou(a, b) == reference_diou(a, b)
            assert box_diou(corners([a])[0], corners([b])[0]) == reference_diou(a, b)
            assert giou(a, b) == reference_giou(a, b)
            assert math.isfinite(giou(a, b)) and -1.0 <= giou(a, b) <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_random_range_pairs_reach_the_far_branch(self):
        # most pairs overflow, so the test above does exercise the branch
        far = [(a, b) for a, b in range_pairs(3, 300)
               if (max(a.x_max, b.x_max) - min(a.x_min, b.x_min)) == math.inf]
        assert len(far) > 100

    def test_giou_exact_to_rounding_on_far_pairs(self):
        # one side at a time keeps the union's ratio to the enclosing area
        # exact to a few ulp, also for thin pairs whose scaled height would be subnormal
        thin = [(Box(-1.7e308, 0, -1.6e308, h), Box(1.6e308, 0, 1.7e308, h))
                for h in (1.0, 1e-10, 1e-16, 1e-300)]
        for a, b in thin + range_pairs(3, 300):
            assert giou(a, b) == pytest.approx(exact_giou(a, b), rel=0, abs=1e-15)

    def test_giou_of_zero_height_far_pair_is_its_iou(self):
        # the enclosing area is inf * 0; as for any zero-area enclosing box
        a, b = Box(-1.7e308, 0, -1.6e308, 0), Box(1.6e308, 0, 1.7e308, 0)
        assert giou(a, b) == iou(a, b) == 0.0

    def test_giou_finite_when_the_enclosing_width_overflows(self):
        a, b = GIOU_RANGE_PAIR
        # enclosing width 3.4e308, union 2 * 1e307: -(3.4 - 0.2) / 3.4
        assert giou(a, b) == pytest.approx(-16 / 17, rel=1e-15)
        assert giou(b, a) == giou(a, b)

    def test_near_pairs_keep_the_unscaled_value(self):
        a, b = Box(0, 0, 1, 1), Box(2, 2, 3, 3)
        assert giou(a, b) == reference_giou(a, b) == 0.0 - (9.0 - 2.0) / 9.0
        assert diou(a, b) == reference_diou(a, b)


    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
    def test_numpy_coordinates_score_as_python_floats(self):
        """A box of `np.float64` coordinates, on either side or both, scores
        as the same Python floats do, also where a side, centre, offset or
        aspect ratio overflows."""
        thin = (Box(0, 0, 1e300, 1e-10), Box(0, 0, 1, 1))  # 1e300 / 1e-10 overflows
        pairs = [FAR_PAIR, GIOU_RANGE_PAIR, thin, *RANGE_PAIRS, *range_pairs(5, 100)]
        for a, b in pairs + [(b, a) for a, b in pairs]:
            na, nb = (Box(*corners([box])[0]) for box in (a, b))
            assert type(na.x_min) is np.float64
            for metric in METRICS:
                assert metric(na, nb) == metric(na, b) == metric(a, nb) == metric(a, b)


class TestCiou:
    def test_identity(self):
        assert ciou(Box(0, 0, 1, 1), Box(0, 0, 1, 1)) == 1.0

    def test_same_aspect_concentric_equals_iou(self):
        a, b = Box(-1, -1, 1, 1), Box(-2, -2, 2, 2)
        assert ciou(a, b) == iou(a, b)

    def test_shared_corner_transposed(self):
        # frozen from a straight-line transcription of the formula
        assert abs(ciou(Box(0, 0, 2, 1), Box(0, 0, 1, 2)) - 0.23708166492265273) < 1e-12

    def test_degenerate_box_drops_aspect_term(self):
        a, b = Box(0, 0, 2, 0), Box(0, 0, 2, 2)
        assert ciou(a, b) == diou(a, b)


class TestMetricProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            for m in METRICS:
                assert m(a, b) == m(b, a)

    def test_penalty_ordering(self):
        rng = np.random.default_rng(13)
        eps = 1e-12
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            assert ciou(a, b) <= diou(a, b) + eps
            assert diou(a, b) <= iou(a, b) + eps
            assert giou(a, b) <= iou(a, b) + eps

    @pytest.mark.parametrize("k", [0.5, 3.0, 1000.0])
    def test_scale_invariance(self, k):
        rng = np.random.default_rng(17)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            sa = Box(a.x_min * k, a.y_min * k, a.x_max * k, a.y_max * k)
            sb = Box(b.x_min * k, b.y_min * k, b.x_max * k, b.y_max * k)
            for m in METRICS:
                assert abs(m(sa, sb) - m(a, b)) < 1e-9

    def test_bounds(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            assert 0.0 <= iou(a, b) <= 1.0
            assert -1.0 <= giou(a, b) <= 1.0


class TestArrayKernels:
    """The array kernels reproduce the scalar reference, within the gaps in
    KERNELS; edge pairs must match exactly."""

    @staticmethod
    def boxes(seed, n=60):
        rng = np.random.default_rng(seed)
        return ([random_box(rng) for _ in range(n)]
                + [random_int_box(rng, extent=6) for _ in range(n)]
                + [b for pair in EDGE_PAIRS for b in pair])

    @pytest.mark.parametrize("kernel,scalar,_gap", KERNELS)
    @pytest.mark.parametrize("a,b", EDGE_PAIRS)
    def test_edge_cases(self, kernel, scalar, _gap, a, b):
        assert kernel(corners([a])[0], corners([b]))[0] == scalar(a, b)
        assert kernel(corners([b])[0], corners([a]))[0] == scalar(b, a)

    @pytest.mark.parametrize("kernel,scalar,gap", KERNELS)
    def test_row_matches_scalar(self, kernel, scalar, gap):
        boxes = self.boxes(23)
        arr = corners(boxes)
        for i in range(0, len(boxes), 7):
            row = kernel(arr[i], arr)
            assert row.shape == (len(boxes),)
            want = np.array([scalar(boxes[i], b) for b in boxes])
            assert np.abs(row - want).max() <= gap

    @pytest.mark.parametrize("kernel,scalar,gap", KERNELS)
    def test_matrix_matches_scalar(self, kernel, scalar, gap):
        dets, truths = self.boxes(29, n=40), self.boxes(31, n=15)
        m = kernel(corners(dets)[:, None], corners(truths)[None, :])
        want = np.array([[scalar(a, b) for b in truths] for a in dets])
        assert m.shape == want.shape
        assert np.abs(m - want).max() <= gap

    def test_empty_operands(self):
        some = corners([Box(0, 0, 1, 1), Box(0, 0, 2, 2)])
        assert corners([]).shape == (0, 4)
        assert box_iou(corners([])[:, None], some[None, :]).shape == (0, 2)
        assert box_diou(some[:, None], corners([])[None, :]).shape == (2, 0)


def _kernel_scalar(kernel):
    return lambda a, b: kernel(corners([a])[0], corners([b])[0])


# small integer corners keep every sum, product and halving exact, so the
# properties below hold with ==, not within a tolerance
int_boxes = st.builds(
    lambda x, y, w, h: Box(float(x), float(y), float(x + w), float(y + h)),
    st.integers(-16, 16), st.integers(-16, 16),
    st.integers(0, 16), st.integers(0, 16))
EXACT_METRICS = pytest.mark.parametrize(
    "metric", METRICS + tuple(_kernel_scalar(k) for k, _, _ in KERNELS),
    ids=[m.__name__ for m in METRICS] + [k.__name__ for k, _, _ in KERNELS])


class TestExactProperties:
    @EXACT_METRICS
    @settings(deadline=None, derandomize=True)
    @given(a=int_boxes, b=int_boxes)
    def test_symmetric(self, metric, a, b):
        assert metric(a, b) == metric(b, a)

    @EXACT_METRICS
    @settings(deadline=None, derandomize=True)
    @given(a=int_boxes, b=int_boxes, dx=st.integers(-1000, 1000),
           dy=st.integers(-1000, 1000))
    def test_integer_translation_invariant(self, metric, a, b, dx, dy):
        def shift(box):
            return Box(box.x_min + dx, box.y_min + dy,
                       box.x_max + dx, box.y_max + dy)
        assert metric(shift(a), shift(b)) == metric(a, b)

    @EXACT_METRICS
    @settings(deadline=None, derandomize=True)
    @given(a=int_boxes, b=int_boxes, k=st.integers(-20, 20))
    def test_power_of_two_scale_invariant(self, metric, a, b, k):
        s = 2.0 ** k

        def scale(box):
            return Box(box.x_min * s, box.y_min * s, box.x_max * s, box.y_max * s)
        assert metric(scale(a), scale(b)) == metric(a, b)
