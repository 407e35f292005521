import math

import numpy as np
import pytest

from detbag.featuremap import (SPP_DEFAULT_KERNELS, activation, dropblock_mask,
                               max_pool_same, pointwise_sam, spp)


def naive_max_pool(f, k):
    """Quadruple-loop pooling oracle with window clamping at the borders."""
    c, h, w = f.shape
    out = np.empty_like(f)
    r = (k - 1) // 2
    for ch in range(c):
        for y in range(h):
            for x in range(w):
                y0, y1 = max(y - r, 0), min(y + r + 1, h)
                x0, x1 = max(x - r, 0), min(x + r + 1, w)
                out[ch, y, x] = f[ch, y0:y1, x0:x1].max()
    return out


class TestSpp:
    def test_kernel_one_is_identity(self):
        rng = np.random.default_rng(97)
        f = rng.normal(size=(3, 6, 5))
        assert np.array_equal(spp(f, (1,)), f)

    def test_default_kernels_quadruple_channels(self):
        f = np.zeros((4, 16, 16))
        out = spp(f)
        assert out.shape == (16, 16, 16)
        assert SPP_DEFAULT_KERNELS == (1, 5, 9, 13)

    def test_impulse_fills_plane_at_k5(self):
        f = np.zeros((1, 5, 5))
        f[0, 2, 2] = 1.0
        assert np.array_equal(max_pool_same(f, 5), np.ones((1, 5, 5)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            f = rng.normal(size=(3, 8, 8))
            out = spp(f, SPP_DEFAULT_KERNELS)
            expected = np.concatenate(
                [naive_max_pool(f, k) for k in SPP_DEFAULT_KERNELS], axis=0)
            assert np.array_equal(out, expected)

    def test_monotone_in_inputs(self):
        rng = np.random.default_rng(103)
        f = rng.normal(size=(2, 8, 8))
        before = spp(f)
        g = f.copy()
        g[1, 3, 4] += 2.5
        after = spp(g)
        assert (after >= before).all()

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            spp(np.zeros((1, 4, 4)), (2,))


class TestDropblock:
    def test_keep_prob_one(self):
        mask, scale = dropblock_mask(10, 10, 3, 1.0, np.random.default_rng(0))
        assert np.array_equal(mask, np.ones((10, 10)))
        assert scale == 1.0

    def test_block_one_is_iid_dropout(self):
        rng = np.random.default_rng(107)
        mask, _ = dropblock_mask(200, 200, 1, 0.8, rng)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert abs(mask.mean() - 0.8) < 0.03

    def test_empirical_keep_fraction(self):
        rng = np.random.default_rng(109)
        fractions = [dropblock_mask(100, 100, 5, 0.9, rng)[0].mean()
                     for _ in range(100)]
        assert abs(np.mean(fractions) - 0.9) < 0.03

    def test_zeros_form_complete_interior_blocks(self):
        rng = np.random.default_rng(113)
        b = 4
        mask, _ = dropblock_mask(40, 40, b, 0.85, rng)
        zeros = mask == 0.0
        assert zeros.any()
        # every zero cell must be covered by some fully-zero bxb square
        # whose footprint lies inside the mask
        covered = np.zeros_like(zeros)
        h, w = zeros.shape
        for i in range(h - b + 1):
            for j in range(w - b + 1):
                if zeros[i:i + b, j:j + b].all():
                    covered[i:i + b, j:j + b] = True
        assert (covered == zeros).all()

    def test_scale_rebalances_mean(self):
        rng = np.random.default_rng(127)
        mask, scale = dropblock_mask(60, 60, 3, 0.9, rng)
        assert scale == pytest.approx(mask.size / mask.sum())

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dropblock_mask(5, 5, 6, 0.9, rng)
        with pytest.raises(ValueError):
            dropblock_mask(5, 5, 2, 0.0, rng)


class TestPointwiseSam:
    def test_zero_logits_halve(self):
        rng = np.random.default_rng(131)
        f = rng.normal(size=(2, 4, 4))
        assert np.allclose(pointwise_sam(f, np.zeros_like(f)), f / 2)

    def test_saturated_logits_identity(self):
        rng = np.random.default_rng(137)
        f = rng.normal(size=(2, 4, 4))
        assert np.allclose(pointwise_sam(f, np.full_like(f, 100.0)), f)

    def test_matches_scalar_sigmoid(self):
        rng = np.random.default_rng(139)
        f = rng.normal(size=(2, 3, 3))
        logits = rng.normal(scale=4.0, size=(2, 3, 3))
        out = pointwise_sam(f, logits)
        for idx in np.ndindex(f.shape):
            assert out[idx] == pytest.approx(
                f[idx] / (1.0 + math.exp(-logits[idx])), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pointwise_sam(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))


def fd_derivative(kind, x, h=1e-6):
    hi, _ = activation(x + h, kind)
    lo, _ = activation(x - h, kind)
    return (hi - lo) / (2 * h)


class TestActivations:
    def test_mish_at_zero(self):
        value, _ = activation(0.0, "mish")
        assert value == 0.0

    def test_swish_at_zero(self):
        value, deriv = activation(0.0, "swish")
        assert value == 0.0
        assert deriv == 0.5

    @pytest.mark.parametrize("kind", ["mish", "swish", "leaky_relu"])
    def test_nan_rejected(self, kind):
        with pytest.raises(ValueError):
            activation(math.nan, kind)

    def test_mish_at_one_frozen(self):
        value, deriv = activation(1.0, "mish")
        assert value == pytest.approx(0.8650983882673103, abs=1e-15)
        assert deriv == pytest.approx(1.0490362200997922, abs=1e-15)
        fd = fd_derivative("mish", 1.0)
        assert abs(deriv - fd) / abs(fd) < 1e-6

    @pytest.mark.parametrize("kind", ["mish", "swish"])
    def test_derivative_matches_finite_differences(self, kind):
        for x in np.linspace(-20, 20, 401):
            _, deriv = activation(float(x), kind)
            fd = fd_derivative(kind, float(x))
            assert abs(deriv - fd) / max(1.0, abs(fd)) < 1e-5

    @pytest.mark.parametrize("kind", ["mish", "swish"])
    def test_continuity_on_fine_grid(self, kind):
        xs = np.linspace(-20, 20, 20001)
        values = np.array([activation(float(x), kind)[0] for x in xs])
        assert np.abs(np.diff(values)).max() < 5e-3

    @pytest.mark.parametrize("x", [1e4, -1e4, 1e6, -1e6])
    def test_no_overflow_far_out(self, x):
        for kind in ("mish", "swish", "leaky_relu"):
            value, deriv = activation(x, kind)
            assert math.isfinite(value) and math.isfinite(deriv)

    def test_leaky_relu(self):
        assert activation(3.0, "leaky_relu") == (3.0, 1.0)
        assert activation(-2.0, "leaky_relu") == (-0.2, 0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            activation(0.0, "relu6")
