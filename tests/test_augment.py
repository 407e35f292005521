import colorsys
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detbag import augment
from detbag.augment import (MIN_AREA_FRAC, Sample, _resize_nearest, blur, cutmix,
                            cutmix_rect, geometric, mixup, mosaic, photometric)
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

    @pytest.mark.parametrize("other", [(4, 5), (5, 4), (8, 8)])
    def test_dimension_mismatch_named(self, other):
        # cutmix leaves the check to cutmix_rect, which raises the same message
        with pytest.raises(ValueError, match=r"dimension mismatch: \(4, 4, 3\) vs"):
            cutmix(Sample(solid(4, 4, 0.0)), Sample(solid(*other, 0.0)),
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
        assert out.image is not s.image
        assert out.image.tobytes() == s.image.tobytes()
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


def hwc_rgb_to_hsv(rgb):
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    delta = maxc - minc
    sat = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    hue = np.zeros_like(maxc)
    safe = np.where(delta > 0, delta, 1.0)
    sel_r = (maxc == r) & (delta > 0)
    sel_g = (maxc == g) & ~sel_r & (delta > 0)
    sel_b = (delta > 0) & ~sel_r & ~sel_g
    hue = np.where(sel_r, ((g - b) / safe) % 6.0, hue)
    hue = np.where(sel_g, (b - r) / safe + 2.0, hue)
    hue = np.where(sel_b, (r - g) / safe + 4.0, hue)
    return np.stack([hue / 6.0, sat, maxc], axis=-1)


def hwc_hsv_to_rgb(hsv):
    h, s, v = hsv[..., 0] % 1.0, hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(int) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def hwc_photometric(s, brightness=0.0, contrast=1.0, hue=0.0, saturation=1.0,
                    noise_sigma=0.0, rng=None):
    """Reference image of `photometric`: every stage on the interleaved
    (H, W, 3) array, the HSV round trip with last-axis reductions,
    `np.choose` and float `%`. `photometric` must equal it byte for byte."""
    img = s.image
    if brightness != 0.0:
        img = np.clip(img + brightness, 0.0, 1.0)
    if contrast != 1.0:
        mean = img.mean()
        img = np.clip(mean + contrast * (img - mean), 0.0, 1.0)
    if hue != 0.0 or saturation != 1.0:
        hsv = hwc_rgb_to_hsv(np.clip(img, 0.0, 1.0))
        hsv[..., 0] = (hsv[..., 0] + hue) % 1.0
        hsv[..., 1] = np.clip(hsv[..., 1] * saturation, 0.0, 1.0)
        img = np.clip(hwc_hsv_to_rgb(hsv), 0.0, 1.0)
    if noise_sigma != 0.0:
        img = np.clip(img + rng.normal(0.0, noise_sigma, img.shape), 0.0, 1.0)
    return img


# pixel values on the edges of the HSV round trip: both zeros, white, the
# sector boundaries, a tiny positive value and the largest float below 1
PIXEL_POOL = (0.0, -0.0, 1.0, 0.5, 1 / 3, 2 / 3, 1e-300, 1 - 1e-16)


@st.composite
def jitter_images(draw):
    """A 1-7 px sided image mixing uniform and pool values, with gray
    pixels, two channels tied, and values outside [0, 1]."""
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-0.5, 1.5)]))
    img = rng.uniform(lo, hi, (h, w, 3))
    pooled = rng.random((h, w, 3)) < draw(st.floats(0.0, 1.0))
    img[pooled] = rng.choice(PIXEL_POOL, int(pooled.sum()))
    gray = rng.random((h, w)) < draw(st.floats(0.0, 0.5))
    img[gray] = img[gray][:, :1]
    a, b = draw(st.sampled_from([(0, 1), (1, 2), (0, 2)]))
    tied = rng.random((h, w)) < draw(st.floats(0.0, 0.5))
    img[tied, b] = img[tied, a]
    return img


def identity_or(value, drawn):
    return st.one_of(st.just(value), drawn)


def block_edge_image(h, w, seed):
    """Values inside and outside [0, 1]; the last row block of `photometric`
    also holds PIXEL_POOL values (signed zeros among them) and gray pixels."""
    rng = np.random.default_rng(seed)
    img = rng.uniform(-0.5, 1.5, (h, w, 3))
    block = max(1, augment._BLOCK_PIXELS // w)
    tail = img[(h - 1) // block * block:]
    pooled = rng.random(tail.shape) < 0.5
    tail[pooled] = rng.choice(PIXEL_POOL, int(pooled.sum()))
    gray = rng.random(tail.shape[:2]) < 0.2
    tail[gray] = tail[gray][:, :1]
    return img


# each stage alone, then all of them with noise
STAGES = [dict(brightness=0.07), dict(contrast=1.4), dict(hue=0.3), dict(saturation=1.7),
          dict(noise_sigma=0.05),
          dict(brightness=-0.05, contrast=0.8, hue=-0.04, saturation=1.3, noise_sigma=0.02)]
STAGE_IDS = ["brightness", "contrast", "hue", "saturation", "noise", "all"]


class TestPhotometricPlanes:
    @settings(deadline=None, max_examples=400, derandomize=True)
    @given(jitter_images(),
           identity_or(0.0, st.floats(-1.0, 1.0)),
           identity_or(1.0, st.floats(0.0, 3.0)),
           identity_or(0.0, st.one_of(st.floats(-3.0, 3.0),
                                      st.sampled_from([-1e-17, 0.5, -0.5, 1.0, -1.0]))),
           identity_or(1.0, st.one_of(st.floats(0.0, 5.0), st.just(0.0))),
           identity_or(0.0, st.floats(0.001, 0.5)),
           st.integers(0, 2**32 - 1))
    def test_bytes_equal_the_hwc_reference(self, img, brightness, contrast, hue,
                                           saturation, noise_sigma, seed):
        kwargs = dict(brightness=brightness, contrast=contrast, hue=hue,
                      saturation=saturation, noise_sigma=noise_sigma)
        out = photometric(Sample(img), rng=np.random.default_rng(seed), **kwargs)
        want = hwc_photometric(Sample(img), rng=np.random.default_rng(seed), **kwargs)
        assert out.image.tobytes() == want.tobytes()

    def test_train_size_image_bytes(self):
        # long rows take numpy's vector loops, which small images do not
        rng = np.random.default_rng(211)
        img = rng.random((416, 416, 3))
        img[rng.random((416, 416)) < 0.1] = 0.25  # gray
        signed_zeros = np.array(list(itertools.product([-0.0, 0.0], repeat=3)))
        img[:8] = np.resize(signed_zeros, (8, 416, 3))
        for hue, saturation in ((0.04, 1.2), (-0.5, 0.0), (1.0, 3.0)):
            out = photometric(Sample(img), hue=hue, saturation=saturation)
            want = hwc_photometric(Sample(img), hue=hue, saturation=saturation)
            assert out.image.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kwargs", STAGES, ids=STAGE_IDS)
    @pytest.mark.parametrize("width", [1, 7, 416])
    def test_bytes_and_rng_stream_across_row_blocks(self, width, kwargs):
        block = max(1, augment._BLOCK_PIXELS // width)
        for height in sorted({1, block - 1, block, block + 1, 2 * block + 1, 417} - {0}):
            img = block_edge_image(height, width, seed=height * width)
            self.assert_matches_reference(img, kwargs, seed=height)

    @pytest.mark.parametrize("kwargs", [dict(contrast=1.4), STAGES[-1]],
                             ids=["contrast", "all"])
    def test_non_contiguous_image_bytes(self, kwargs):
        # the contrast mean sums in the input's memory order, as before
        img = block_edge_image(417, 416, seed=229)
        for view in (img[:, ::-1], img[::-2], np.asfortranarray(img)):
            self.assert_matches_reference(view, kwargs, seed=233)

    @staticmethod
    def assert_matches_reference(img, kwargs, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = photometric(Sample(img), rng=rng, **kwargs)
        want = hwc_photometric(Sample(img), rng=ref_rng, **kwargs)
        assert out.image.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kwargs", [
        STAGES[-1], dict(hue=0.03, saturation=1.2), dict(noise_sigma=0.02),
        dict(brightness=0.05, contrast=1.2)], ids=["all", "hsv", "noise", "brightness-contrast"])
    def test_peak_allocation_within_half_an_image_of_the_output(self, kwargs):
        img = np.random.default_rng(239).random((416, 416, 3))
        s, rng = Sample(img), np.random.default_rng(0)
        tracemalloc.start()
        try:
            photometric(s, rng=rng, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * img.nbytes

    @pytest.mark.parametrize("kwargs,message", [
        (dict(noise_sigma=-1.0, rng=np.random.default_rng(0)),
         "noise_sigma must be >= 0: -1.0"),
        (dict(noise_sigma=0.1), "noise_sigma > 0 needs an rng")])
    def test_noise_arguments_checked_before_pixel_work(self, monkeypatch, kwargs,
                                                       message):
        def unreachable(*planes):
            raise AssertionError("HSV stage reached")
        monkeypatch.setattr(augment, "_rgb_to_hsv", unreachable)
        big = Sample(np.full((416, 416, 3), 0.5))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            photometric(big, brightness=0.1, contrast=1.2, hue=0.1, **kwargs)


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


def _clip_and_filter(labels, weights, canvas_w, canvas_h):
    """Clip boxes to the canvas; drop a box when it misses the closed canvas
    or its clipped area falls below MIN_AREA_FRAC of its (pre-clip)
    transformed area."""
    out_labels, out_weights = [], []
    for (box, cid), wt in zip(labels, weights):
        if box.x_max < 0 or box.x_min > canvas_w or box.y_max < 0 or box.y_min > canvas_h:
            continue
        x1 = min(max(box.x_min, 0.0), canvas_w)
        y1 = min(max(box.y_min, 0.0), canvas_h)
        x2 = min(max(box.x_max, 0.0), canvas_w)
        y2 = min(max(box.y_max, 0.0), canvas_h)
        clipped = Box(x1, y1, x2, y2)
        if clipped.area < MIN_AREA_FRAC * box.area:
            continue
        out_labels.append((clipped, cid))
        out_weights.append(wt)
    return out_labels, out_weights


def per_box_labels(op, s, arg=None):
    """Reference labels and weights, one `Box` per label per step, with the
    clip and sliver rule applied box by box.

    op is 'hflip', 'scale' (arg k), 'crop' (arg region) or 'mosaic' (s the
    four samples, arg (out_w, out_h, seed)).
    """
    if op == "mosaic":
        out_w, out_h, seed = arg
        rng = np.random.default_rng(seed)
        split_x = int(round(rng.uniform(0.25 * out_w, 0.75 * out_w)))
        split_y = int(round(rng.uniform(0.25 * out_h, 0.75 * out_h)))
        split_x = min(max(split_x, 1), out_w - 1)
        split_y = min(max(split_y, 1), out_h - 1)
        quadrants = ((0, 0, split_x, split_y), (split_x, 0, out_w, split_y),
                     (0, split_y, split_x, out_h), (split_x, split_y, out_w, out_h))
        labels, weights = [], []
        for sample, (qx1, qy1, qx2, qy2) in zip(s, quadrants):
            sx, sy = (qx2 - qx1) / sample.width, (qy2 - qy1) / sample.height
            moved = [(Box(b.x_min * sx + qx1, b.y_min * sy + qy1,
                          b.x_max * sx + qx1, b.y_max * sy + qy1), cid)
                     for b, cid in sample.labels]
            kept, kept_w = _clip_and_filter(moved, sample.weights, out_w, out_h)
            labels.extend(kept)
            weights.extend(kept_w)
        return labels, weights
    if op == "hflip":
        return ([(Box(s.width - b.x_max, b.y_min, s.width - b.x_min, b.y_max), c)
                 for b, c in s.labels], list(s.weights))
    if op == "scale":
        k = arg
        out_h = max(int(round(s.height * k)), 1)
        out_w = max(int(round(s.width * k)), 1)
        moved = [(Box(b.x_min * k, b.y_min * k, b.x_max * k, b.y_max * k), c)
                 for b, c in s.labels]
        return _clip_and_filter(moved, s.weights, out_w, out_h)
    x1, y1, x2, y2 = arg
    moved = [(Box(b.x_min - x1, b.y_min - y1, b.x_max - x1, b.y_max - y1), c)
             for b, c in s.labels]
    return _clip_and_filter(moved, s.weights, x2 - x1, y2 - y1)


def apply(op, s, arg=None):
    """Run op on s the way `per_box_labels` takes its arguments."""
    if op == "mosaic":
        out_w, out_h, seed = arg
        return mosaic(s, out_w, out_h, np.random.default_rng(seed))
    if op == "scale":
        return geometric(s, op, k=arg)
    return geometric(s, op, region=arg)


def assert_matches_per_box(out, op, s, arg=None):
    assert (out.labels, out.weights) == per_box_labels(op, s, arg)
    # Python floats: neither numpy scalars nor the int canvas side that the
    # per-box clip returns for a box cut at the far edge
    assert all(type(v) is float for box, _ in out.labels
               for v in (box.x_min, box.y_min, box.x_max, box.y_max))


def assert_labels_inside_canvas(out):
    assert len(out.weights) == len(out.labels)
    for box, _ in out.labels:
        assert 0.0 <= box.x_min <= box.x_max <= out.width
        assert 0.0 <= box.y_min <= box.y_max <= out.height


class TestLabelsStayOnCanvas:
    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.lists(samples(), min_size=4, max_size=4),
           st.integers(2, 40), st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_mosaic(self, four, out_w, out_h, seed):
        out = mosaic(four, out_w, out_h, np.random.default_rng(seed))
        assert (out.width, out.height) == (out_w, out_h)
        assert_labels_inside_canvas(out)
        assert_matches_per_box(out, "mosaic", four, (out_w, out_h, seed))

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(samples())
    def test_hflip(self, s):
        out = geometric(s, "hflip")
        assert len(out.labels) == len(s.labels)
        assert_labels_inside_canvas(out)
        assert_matches_per_box(out, "hflip", s)

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(samples(), st.floats(0.01, 4.0))
    def test_scale(self, s, k):
        out = geometric(s, "scale", k=k)
        assert_labels_inside_canvas(out)
        assert_matches_per_box(out, "scale", s, k)

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(samples(), st.data())
    def test_crop(self, s, data):
        x1 = data.draw(st.integers(0, s.width - 1))
        x2 = data.draw(st.integers(x1 + 1, s.width))
        y1 = data.draw(st.integers(0, s.height - 1))
        y2 = data.draw(st.integers(y1 + 1, s.height))
        out = geometric(s, "crop", region=(x1, y1, x2, y2))
        assert (out.width, out.height) == (x2 - x1, y2 - y1)
        assert_labels_inside_canvas(out)
        assert_matches_per_box(out, "crop", s, (x1, y1, x2, y2))


# a 12 x 10 image whose labels sit on the edge cases of the clip and sliver
# rule; the comments say what a crop from x = 9 does to each
EDGE = Sample(np.full((10, 12, 3), 0.5), [
    (Box(0.0, 0.0, 12.0, 10.0), 0),   # the whole image, on every edge
    (Box(11.0, 9.0, 12.0, 10.0), 1),  # the bottom-right corner pixel
    (Box(3.0, 2.0, 3.0, 6.0), 2),     # zero width, outside the crop: dropped
    (Box(2.0, 4.0, 7.0, 4.0), 3),     # zero height, outside: likewise
    (Box(0.0, 0.0, 10.0, 1.0), 4),    # keeps exactly MIN_AREA_FRAC: kept
    (Box(0.0, 2.0, 9.999, 3.0), 5),   # keeps just under it: dropped
    (Box(0.0, 5.0, 2.0, 8.0), 6),     # fully outside: dropped
], [1.0, 0.5, 0.25, 0.75, 0.125, 0.9, 0.3])


class TestPerBoxOracle:
    @pytest.mark.parametrize("op,arg", [
        ("hflip", None), ("scale", 0.5), ("scale", 1.7), ("scale", 0.01),
        ("crop", (9, 0, 12, 10)), ("crop", (0, 0, 12, 10)), ("crop", (4, 3, 8, 7)),
        ("crop", (11, 9, 12, 10)), ("mosaic", (20, 20, 0)), ("mosaic", (7, 33, 5))])
    def test_edge_labels(self, op, arg):
        s = [EDGE] * 4 if op == "mosaic" else EDGE
        assert_matches_per_box(apply(op, s, arg), op, s, arg)

    def test_sliver_threshold_and_outside_boxes(self):
        out = geometric(EDGE, "crop", region=(9, 0, 12, 10))
        assert [cid for _, cid in out.labels] == [0, 1, 4]
        assert out.labels[2][0] == Box(0.0, 0.0, 1.0, 1.0)
        assert out.weights == [1.0, 0.5, 0.125]

    @pytest.mark.parametrize("region,cid,box", [
        ((3, 0, 12, 10), 2, Box(0.0, 2.0, 0.0, 6.0)),   # on the left edge
        ((0, 0, 2, 10), 3, Box(2.0, 4.0, 2.0, 4.0))])   # touches the right edge
    def test_zero_area_box_touching_the_crop_kept(self, region, cid, box):
        out = geometric(EDGE, "crop", region=region)
        assert dict((c, b) for b, c in out.labels)[cid] == box

    @pytest.mark.parametrize("op,arg", [("hflip", None), ("scale", 2.0),
                                        ("crop", (0, 0, 3, 4))])
    def test_negative_zero_comes_out_positive(self, op, arg):
        s = Sample(np.full((4, 3, 3), 0.5), [(Box(-0.0, -0.0, 2.0, 3.0), 0)])
        out = apply(op, s, arg)
        assert_matches_per_box(out, op, s, arg)  # == holds as -0.0 == 0.0
        box = out.labels[0][0]
        assert [math.copysign(1.0, v) for v in
                (box.x_min, box.y_min, box.x_max, box.y_max)] == [1.0] * 4


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
