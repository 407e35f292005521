import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    @settings(deadline=None)
    @given(a=int_boxes, b=int_boxes)
    def test_symmetric(self, metric, a, b):
        assert metric(a, b) == metric(b, a)

    @EXACT_METRICS
    @settings(deadline=None)
    @given(a=int_boxes, b=int_boxes, dx=st.integers(-1000, 1000),
           dy=st.integers(-1000, 1000))
    def test_integer_translation_invariant(self, metric, a, b, dx, dy):
        def shift(box):
            return Box(box.x_min + dx, box.y_min + dy,
                       box.x_max + dx, box.y_max + dy)
        assert metric(shift(a), shift(b)) == metric(a, b)

    @EXACT_METRICS
    @settings(deadline=None)
    @given(a=int_boxes, b=int_boxes, k=st.integers(-20, 20))
    def test_power_of_two_scale_invariant(self, metric, a, b, k):
        s = 2.0 ** k

        def scale(box):
            return Box(box.x_min * s, box.y_min * s, box.x_max * s, box.y_max * s)
        assert metric(scale(a), scale(b)) == metric(a, b)
