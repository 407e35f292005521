import colorsys
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detbag.augment import (Sample, _resize_nearest, blur, cutmix, cutmix_rect,
                            geometric, mixup, mosaic, photometric)
from detbag.geometry import Box


class SplitAt:
    """rng stub driving mosaic's split draw to an exact point."""

    def __init__(self, fx, fy):
        self.values = [fx, fy]

    def uniform(self, lo, hi):
        frac = self.values.pop(0)
        return lo + frac * (hi - lo)


def solid(h, w, color):
    return np.full((h, w, 3), float(color))


def centered_box_sample(h, w, color, cid=0):
    box = Box(w * 0.25, h * 0.25, w * 0.75, h * 0.75)
    return Sample(solid(h, w, color), [(box, cid)])


class TestMosaic:
    def test_four_boxes_one_per_quadrant(self):
        samples = [centered_box_sample(40, 40, 0.5, cid=i) for i in range(4)]
        out = mosaic(samples, 100, 100, np.random.default_rng(0))
        assert len(out.labels) == 4
        assert out.image.shape == (100, 100, 3)
        for box, _ in out.labels:
            assert 0 <= box.x_min <= box.x_max <= 100
            assert 0 <= box.y_min <= box.y_max <= 100
        # one box per quadrant, in input order
        assert [cid for _, cid in out.labels] == [0, 1, 2, 3]

    def test_forced_split_composes_expected_canvas(self):
        colors = [0.1, 0.3, 0.6, 0.9]
        samples = [Sample(solid(20, 30, c)) for c in colors]
        out = mosaic(samples, 80, 40, SplitAt(0.0, 0.0))  # split at (20, 10)
        expected = np.zeros((40, 80, 3))
        expected[:10, :20] = colors[0]
        expected[:10, 20:] = colors[1]
        expected[10:, :20] = colors[2]
        expected[10:, 20:] = colors[3]
        assert np.array_equal(out.image, expected)

    def test_boxes_scale_with_quadrant(self):
        sample = Sample(solid(20, 20, 1.0), [(Box(0, 0, 20, 20), 7)])
        out = mosaic([sample] * 4, 100, 100, SplitAt(0.0, 0.0))  # split (25, 25)
        assert out.labels[0] == (Box(0, 0, 25, 25), 7)
        assert out.labels[3] == (Box(25, 25, 100, 100), 7)

    def test_needs_exactly_four(self):
        with pytest.raises(ValueError):
            mosaic([Sample(solid(4, 4, 0.0))] * 3, 10, 10, np.random.default_rng(0))

    def test_box_count_bounded_by_inputs(self):
        rng = np.random.default_rng(181)
        for _ in range(20):
            samples = []
            total = 0
            for _ in range(4):
                n = int(rng.integers(0, 4))
                labels = []
                for _ in range(n):
                    x, y = rng.uniform(0, 20, 2)
                    w, h = rng.uniform(1, 10, 2)
                    labels.append((Box(x, y, min(x + w, 30), min(y + h, 30)),
                                   int(rng.integers(0, 3))))
                samples.append(Sample(solid(30, 30, 0.5), labels))
                total += n
            out = mosaic(samples, 64, 64, rng)
            assert len(out.labels) <= total

    def test_seeded_reproducibility(self):
        samples = [centered_box_sample(32, 32, c / 4) for c in range(4)]
        a = mosaic(samples, 64, 64, np.random.default_rng(42))
        b = mosaic(samples, 64, 64, np.random.default_rng(42))
        assert np.array_equal(a.image, b.image)
        assert a.labels == b.labels


class TestCutmix:
    def test_whole_image_rect_yields_b(self):
        a = Sample(solid(10, 10, 0.2), [(Box(1, 1, 5, 5), 0)])
        b = Sample(solid(10, 10, 0.8), [(Box(2, 2, 6, 6), 1)])
        out = cutmix_rect(a, b, (0, 0, 10, 10))
        assert np.array_equal(out.image, b.image)
        assert out.labels == [(Box(2, 2, 6, 6), 1)]
        assert out.weights == [1.0]

    def test_empty_rect_yields_a(self):
        a = Sample(solid(10, 10, 0.2), [(Box(1, 1, 5, 5), 0)])
        b = Sample(solid(10, 10, 0.8), [(Box(2, 2, 6, 6), 1)])
        out = cutmix_rect(a, b, (0, 0, 0, 0))
        assert np.array_equal(out.image, a.image)
        assert out.labels == [(Box(1, 1, 5, 5), 0)]
        assert out.weights == [1.0]

    def test_left_half_splits_weights(self):
        a = Sample(solid(10, 10, 0.2), [(Box(1, 1, 5, 5), 0)])
        b = Sample(solid(10, 10, 0.8), [(Box(2, 2, 6, 6), 1)])
        out = cutmix_rect(a, b, (0, 0, 5, 10))
        assert out.weights == [0.5, 0.5]
        assert np.array_equal(out.image[:, :5], b.image[:, :5])
        assert np.array_equal(out.image[:, 5:], a.image[:, 5:])

    def test_rng_reproducible_and_valid(self):
        a = Sample(solid(16, 16, 0.2), [(Box(1, 1, 5, 5), 0)])
        b = Sample(solid(16, 16, 0.8), [(Box(2, 2, 6, 6), 1)])
        o1 = cutmix(a, b, np.random.default_rng(5))
        o2 = cutmix(a, b, np.random.default_rng(5))
        assert np.array_equal(o1.image, o2.image)
        assert o1.weights == o2.weights
        assert sum(o1.weights) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cutmix(Sample(solid(4, 4, 0.0)), Sample(solid(4, 5, 0.0)),
                   np.random.default_rng(0))


class TestMixup:
    def test_lambda_one_is_a(self):
        a = Sample(solid(6, 6, 0.3), [(Box(0, 0, 2, 2), 0)])
        b = Sample(solid(6, 6, 0.9), [(Box(1, 1, 3, 3), 1)])
        out = mixup(a, b, 1.0)
        assert np.array_equal(out.image, a.image)
        assert out.labels == a.labels

    def test_lambda_zero_is_b(self):
        a = Sample(solid(6, 6, 0.3), [(Box(0, 0, 2, 2), 0)])
        b = Sample(solid(6, 6, 0.9), [(Box(1, 1, 3, 3), 1)])
        out = mixup(a, b, 0.0)
        assert np.array_equal(out.image, b.image)
        assert out.labels == b.labels

    def test_half_blend_of_black_and_white(self):
        out = mixup(Sample(solid(4, 4, 0.0)), Sample(solid(4, 4, 1.0)), 0.5)
        assert np.array_equal(out.image, solid(4, 4, 0.5))

    def test_weight_mass_preserved(self):
        rng = np.random.default_rng(191)
        a = Sample(solid(6, 6, 0.3), [(Box(0, 0, 2, 2), 0), (Box(3, 3, 5, 5), 1)],
                   [0.5, 1.0])
        b = Sample(solid(6, 6, 0.9), [(Box(1, 1, 3, 3), 1)], [0.8])
        for _ in range(20):
            lam = float(rng.uniform(0, 1))
            out = mixup(a, b, lam)
            assert sum(out.weights) == pytest.approx(
                lam * sum(a.weights) + (1 - lam) * sum(b.weights))

    def test_lambda_range_checked(self):
        with pytest.raises(ValueError):
            mixup(Sample(solid(2, 2, 0.0)), Sample(solid(2, 2, 0.0)), 1.2)


class TestPhotometric:
    def sample(self):
        rng = np.random.default_rng(193)
        return Sample(rng.random((12, 9, 3)), [(Box(1, 1, 4, 4), 0)])

    def test_identity_parameters_bit_exact(self):
        s = self.sample()
        out = photometric(s)
        assert np.array_equal(out.image, s.image)
        assert out.labels == s.labels

    def test_brightness_shift(self):
        out = photometric(Sample(solid(4, 4, 0.5)), brightness=0.1)
        assert np.allclose(out.image, 0.6)

    def test_contrast_fixed_point_on_constant_image(self):
        out = photometric(Sample(solid(4, 4, 0.37)), contrast=1.8)
        assert np.allclose(out.image, 0.37)

    def test_hsv_round_trip_matches_colorsys(self):
        rng = np.random.default_rng(197)
        img = rng.random((5, 4, 3))
        out = photometric(Sample(img), hue=0.25, saturation=0.7)
        for y in range(5):
            for x in range(4):
                h, s, v = colorsys.rgb_to_hsv(*img[y, x])
                want = colorsys.hsv_to_rgb((h + 0.25) % 1.0, min(s * 0.7, 1.0), v)
                assert np.allclose(out.image[y, x], want, atol=1e-12)

    def test_noise_needs_rng_and_clamps(self):
        with pytest.raises(ValueError):
            photometric(Sample(solid(4, 4, 0.5)), noise_sigma=0.1)
        out = photometric(Sample(solid(4, 4, 0.99)), noise_sigma=0.5,
                          rng=np.random.default_rng(0))
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["brightness", "contrast", "hue", "saturation",
                                      "noise_sigma"])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            photometric(self.sample(), rng=np.random.default_rng(0), **{name: value})

    def test_labels_untouched(self):
        s = self.sample()
        out = photometric(s, brightness=0.2, contrast=1.5, hue=0.1,
                          saturation=1.4, noise_sigma=0.05,
                          rng=np.random.default_rng(1))
        assert out.labels == s.labels
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0


class TestGeometric:
    def test_hflip_twice_is_identity(self):
        rng = np.random.default_rng(199)
        s = Sample(rng.random((8, 10, 3)), [(Box(1, 2, 4, 6), 0)])
        out = geometric(geometric(s, "hflip"), "hflip")
        assert np.array_equal(out.image, s.image)
        assert out.labels == s.labels

    def test_hflip_mirrors_box(self):
        s = Sample(solid(8, 10, 0.5), [(Box(1, 2, 4, 6), 0)])
        out = geometric(s, "hflip")
        assert out.labels == [(Box(6, 2, 9, 6), 0)]

    def test_scale_is_linear_on_boxes(self):
        s = Sample(solid(8, 8, 0.5), [(Box(1, 1, 2, 2), 0)])
        out = geometric(s, "scale", k=2.0)
        assert out.labels == [(Box(2, 2, 4, 4), 0)]
        assert out.image.shape == (16, 16, 3)

    def test_crop_drops_disjoint_box(self):
        s = Sample(solid(60, 60, 0.5), [(Box(0, 0, 5, 5), 0),
                                        (Box(20, 20, 40, 40), 1)])
        out = geometric(s, "crop", region=(10, 10, 50, 50))
        assert out.labels == [(Box(10, 10, 30, 30), 1)]
        assert out.image.shape == (40, 40, 3)

    def test_crop_region_validated(self):
        s = Sample(solid(8, 8, 0.5))
        with pytest.raises(ValueError):
            geometric(s, "crop", region=(0, 0, 9, 4))

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            geometric(Sample(solid(4, 4, 0.0)), "rotate")


@st.composite
def samples(draw):
    """A small valid Sample: 1-12 px sides, 0-4 labels inside the image."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    labels, weights = [], []
    for _ in range(draw(st.integers(0, 4))):
        x1, x2 = sorted(draw(st.floats(0.0, float(w))) for _ in range(2))
        y1, y2 = sorted(draw(st.floats(0.0, float(h))) for _ in range(2))
        labels.append((Box(x1, y1, x2, y2), draw(st.integers(0, 3))))
        weights.append(draw(st.floats(0.01, 1.0)))
    return Sample(np.full((h, w, 3), 0.5), labels, weights)


def assert_labels_inside_canvas(out):
    assert len(out.weights) == len(out.labels)
    for box, _ in out.labels:
        assert 0.0 <= box.x_min <= box.x_max <= out.width
        assert 0.0 <= box.y_min <= box.y_max <= out.height


class TestLabelsStayOnCanvas:
    @settings(deadline=None, max_examples=150)
    @given(st.lists(samples(), min_size=4, max_size=4),
           st.integers(2, 40), st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_mosaic(self, four, out_w, out_h, seed):
        out = mosaic(four, out_w, out_h, np.random.default_rng(seed))
        assert (out.width, out.height) == (out_w, out_h)
        assert_labels_inside_canvas(out)

    @settings(deadline=None, max_examples=150)
    @given(samples())
    def test_hflip(self, s):
        out = geometric(s, "hflip")
        assert len(out.labels) == len(s.labels)
        assert_labels_inside_canvas(out)

    @settings(deadline=None, max_examples=150)
    @given(samples(), st.floats(0.01, 4.0))
    def test_scale(self, s, k):
        assert_labels_inside_canvas(geometric(s, "scale", k=k))

    @settings(deadline=None, max_examples=150)
    @given(samples(), st.data())
    def test_crop(self, s, data):
        x1 = data.draw(st.integers(0, s.width - 1))
        x2 = data.draw(st.integers(x1 + 1, s.width))
        y1 = data.draw(st.integers(0, s.height - 1))
        y2 = data.draw(st.integers(y1 + 1, s.height))
        out = geometric(s, "crop", region=(x1, y1, x2, y2))
        assert (out.width, out.height) == (x2 - x1, y2 - y1)
        assert_labels_inside_canvas(out)


class TestBlur:
    def test_radius_zero_identity(self):
        rng = np.random.default_rng(211)
        s = Sample(rng.random((6, 6, 3)))
        assert np.array_equal(blur(s, 0).image, s.image)

    def test_constant_image_unchanged(self):
        out = blur(Sample(solid(9, 9, 0.42)), 2)
        assert np.allclose(out.image, 0.42)

    def test_impulse_row_radius_one(self):
        img = np.zeros((1, 9, 3))
        img[0, 4, :] = 1.0
        out = blur(Sample(img), 1)
        expected = np.zeros(9)
        expected[3:6] = 1 / 3
        assert np.allclose(out.image[0, :, 0], expected)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            blur(Sample(solid(4, 4, 0.0)), -1)


class TestSampleValidation:
    def test_out_of_bounds_box_rejected(self):
        with pytest.raises(ValueError):
            Sample(solid(4, 4, 0.0), [(Box(0, 0, 5, 4), 0)])

    def test_weight_range(self):
        with pytest.raises(ValueError):
            Sample(solid(4, 4, 0.0), [(Box(0, 0, 1, 1), 0)], [0.0])

    def test_resize_nearest_identity(self):
        rng = np.random.default_rng(223)
        img = rng.random((5, 7, 3))
        assert np.array_equal(_resize_nearest(img, 5, 7), img)
