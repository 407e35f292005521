import dataclasses
import math
import warnings

import numpy as np
import pytest

from detbag.decode import (Anchor, DecodeConfig, RawPrediction, assign_anchors,
                           decode, shape_iou, sigmoid)
from detbag.geometry import Box, CenterBox, iou


def make_cfg(s=1.0, stride=1.0, anchors=((10.0, 10.0),), grid=13):
    return DecodeConfig(grid_w=grid, grid_h=grid, stride=stride,
                        anchors=tuple(Anchor(w, h) for w, h in anchors),
                        sensitivity_scale=s)


def pred(t_x=0.0, t_y=0.0, t_w=0.0, t_h=0.0, cell=(0, 0), **kw):
    return RawPrediction(t_x, t_y, t_w, t_h, objectness=0.0, cell=cell, **kw)


class TestDecode:
    def test_classic_equation_at_s1(self):
        out = decode(pred(t_x=0.0, cell=(3, 0)), make_cfg(s=1.0))
        assert out.box.x_c == 3.5

    def test_s1_matches_sigmoid_plus_cell(self):
        cfg = make_cfg(s=1.0)
        rng = np.random.default_rng(79)
        for _ in range(2000):
            t = float(rng.normal(0, 3))
            c = int(rng.integers(0, cfg.grid_w))
            out = decode(pred(t_x=t, cell=(c, 0)), cfg)
            assert abs(out.box.x_c - (sigmoid(t) + c)) < 1e-12

    def test_expanded_range_reaches_past_cell_boundary(self):
        out = decode(pred(t_x=-40.0, cell=(0, 0)), make_cfg(s=2.0))
        assert out.box.x_c == pytest.approx(-0.5, abs=1e-12)

    def test_midpoint_fixed_for_any_scale(self):
        for s in (1.0, 1.1, 1.5, 2.0):
            out = decode(pred(t_x=0.0, cell=(3, 0)), make_cfg(s=s))
            assert out.box.x_c == 3.5

    def test_cell_boundary_reachable_at_finite_logit(self):
        # solve s*sigmoid(t) - (s-1)/2 = 0 for s = 1.1
        s = 1.1
        p = (s - 1.0) / (2.0 * s)
        t = math.log(p / (1.0 - p))
        out = decode(pred(t_x=t, cell=(5, 0)), make_cfg(s=s))
        assert abs(out.box.x_c - 5.0) < 1e-9

    def test_stride_scales_to_pixels(self):
        out = decode(pred(t_x=0.0, cell=(3, 2)), make_cfg(s=1.0, stride=32.0))
        assert out.box.x_c == 3.5 * 32.0
        assert out.box.y_c == 2.5 * 32.0

    def test_size_decode_exponential(self):
        cfg = make_cfg(anchors=((10.0, 20.0),))
        out = decode(pred(t_w=math.log(2.0), t_h=0.0), cfg)
        assert out.box.w == pytest.approx(20.0)
        assert out.box.h == pytest.approx(20.0)

    # exp(1000) overflows math.exp; 10 * exp(709) overflows the product
    @pytest.mark.parametrize("t", [1000.0, 709.0])
    @pytest.mark.parametrize("side", ["t_w", "t_h"])
    def test_size_overflow_raises_naming_prediction(self, side, t):
        p = pred(**{side: t})
        with pytest.raises(ValueError, match="non-finite box") as exc:
            decode(p, make_cfg())
        assert repr(p) in str(exc.value)

    @pytest.mark.parametrize("field", ["t_x", "t_y", "t_w", "t_h",
                                       "objectness", "class_scores"])
    def test_nan_logit_raises_naming_prediction(self, field):
        p = RawPrediction(0.0, 0.0, 0.0, 0.0, 0.0, (0.0, 1.0))
        p = dataclasses.replace(
            p, **{field: (0.0, math.nan) if field == "class_scores" else math.nan})
        with pytest.raises(ValueError, match="non-finite") as exc:
            decode(p, make_cfg())
        assert repr(p) in str(exc.value)

    def test_sigmoid_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            sigmoid(math.nan)
        assert sigmoid(-math.inf) == 0.0 and sigmoid(math.inf) == 1.0

    def test_monotone_in_logits(self):
        cfg = make_cfg(s=1.1)
        ts = np.linspace(-6, 6, 41)
        xs = [decode(pred(t_x=t), cfg).box.x_c for t in ts]
        ws = [decode(pred(t_w=t), cfg).box.w for t in ts]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_probabilities_pass_through_sigmoid(self):
        p = RawPrediction(0, 0, 0, 0, objectness=2.0, class_scores=(0.0, -2.0),
                          cell=(0, 0), anchor_index=0)
        out = decode(p, make_cfg())
        assert out.objectness == pytest.approx(sigmoid(2.0))
        assert np.allclose(out.class_probs, [0.5, sigmoid(-2.0)])

    def test_cell_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            decode(pred(cell=(13, 0)), make_cfg(grid=13))

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(s=0.9)

    @pytest.mark.parametrize("field,value,name", [
        ("grid_w", 0, "grid"), ("grid_h", -3, "grid"), ("anchors", (), "anchors"),
        ("stride", math.nan, "stride"), ("stride", math.inf, "stride"),
        ("sensitivity_scale", math.inf, "sensitivity"),
        ("sensitivity_scale", math.nan, "sensitivity"),
    ])
    def test_config_rejects_bad_field(self, field, value, name):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(make_cfg(), **{field: value})

    @pytest.mark.parametrize("w,h", [(math.nan, 3.0), (math.inf, 4.0), (3.0, math.nan)])
    def test_anchor_rejects_non_finite_side(self, w, h):
        with pytest.raises(ValueError, match="anchor sides"):
            Anchor(w, h)

    # the union of two such anchors would overflow; numpy sides warn on
    # an overflowing product, Python floats do not
    @pytest.mark.parametrize("w,h", [(1e154, 1e154), (np.float64(1e200), np.float64(1e200))])
    def test_anchor_rejects_area_above_bound(self, w, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="anchor area"):
                Anchor(w, h)

    @pytest.mark.parametrize("index", [-1, 2, 5])
    def test_anchor_index_outside_anchors_rejected(self, index):
        cfg = make_cfg(anchors=((10.0, 10.0), (20.0, 40.0)))
        with pytest.raises(ValueError, match="anchor_index"):
            decode(pred(anchor_index=index), cfg)
        assert decode(pred(anchor_index=1), cfg).box.w == 20.0


class TestAssignAnchors:
    CFG = make_cfg(anchors=((10, 10), (20, 20), (5, 40)), stride=32.0, grid=16)

    def test_exact_match_assigned(self):
        out = assign_anchors(CenterBox(100, 100, 10, 10), self.CFG, 0.213)
        assert ((3, 3), 0) in out
        assert shape_iou(10, 10, 10, 10) == 1.0

    def test_multiple_anchors_above_threshold(self):
        out = assign_anchors(CenterBox(100, 100, 10, 10), self.CFG, 0.213)
        assert [a for _, a in out] == [0, 1]
        # concentric-shape ious, cross-checked against the geometry oracle
        truth = Box(-5, -5, 5, 5)
        assert iou(truth, Box(-10, -10, 10, 10)) == pytest.approx(0.25)
        assert iou(truth, Box(-2.5, -20, 2.5, 20)) == pytest.approx(0.2)

    @pytest.mark.parametrize("a,b", [
        ((10, 10), (10, 10)), ((10, 10), (20, 20)), ((5, 40), (10, 10)),
        ((0, 0), (0, 0)), ((0, 5), (3, 0)), ((0, 5), (3, 4)), ((7, 0), (7, 0)),
        ((1e-12, 3.0), (1e12, 2.0)), ((0.1, 0.2), (0.3, 0.7)),
    ])
    def test_shape_iou_equals_concentric_iou(self, a, b):
        def concentric(w, h):
            return Box(-w / 2, -h / 2, w / 2, h / 2)
        assert shape_iou(*a, *b) == iou(concentric(*a), concentric(*b))
        assert shape_iou(*b, *a) == iou(concentric(*b), concentric(*a))

    def test_shape_iou_equals_concentric_iou_on_random_shapes(self):
        rng = np.random.default_rng(89)
        sides = np.exp(rng.uniform(-12, 12, (2000, 4)))
        sides[rng.random(sides.shape) < 0.05] = 0.0
        for w_a, h_a, w_b, h_b in sides.tolist():
            want = iou(Box(-w_a / 2, -h_a / 2, w_a / 2, h_a / 2),
                       Box(-w_b / 2, -h_b / 2, w_b / 2, h_b / 2))
            assert shape_iou(w_a, h_a, w_b, h_b) == want

    @pytest.mark.parametrize("sides", [(-1, 2, 3, 4), (1, -2, 3, 4),
                                       (1, 2, -3, 4), (1, 2, 3, -4)])
    def test_shape_iou_rejects_negative_side(self, sides):
        with pytest.raises(ValueError, match="negative"):
            shape_iou(*sides)

    def test_cell_is_center_cell(self):
        out = assign_anchors(CenterBox(100, 100, 10, 10), self.CFG, 0.213)
        assert all(cell == (3, 3) for cell, _ in out)  # 100 / 32 = 3.125

    def test_fallback_to_best_when_none_clear(self):
        out = assign_anchors(CenterBox(100, 100, 1, 1), self.CFG, 0.9)
        assert len(out) == 1
        assert out[0][1] == 0  # (10,10) is nearest in shape to (1,1)

    def test_nonempty_for_any_truth(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            w, h = rng.uniform(0.5, 500, 2)
            x, y = rng.uniform(0, 512, 2)
            out = assign_anchors(CenterBox(x, y, w, h), self.CFG, 0.213)
            assert len(out) >= 1

    def test_count_monotone_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            w, h = rng.uniform(1, 300, 2)
            truth = CenterBox(200, 200, w, h)
            counts = [len(assign_anchors(truth, self.CFG, t))
                      for t in (0.1, 0.213, 0.4, 0.6, 0.8)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("x,y", [(1e6, -5.0), (-5.0, 100.0), (100.0, -1e-9),
                                     (512.0 + 1e-9, 100.0), (100.0, 1e6)])
    def test_center_outside_grid_raises_naming_truth(self, x, y):
        truth = CenterBox(x, y, 3, 3)
        with pytest.raises(ValueError, match="outside") as exc:
            assign_anchors(truth, self.CFG, 0.213)
        assert repr(truth) in str(exc.value)

    def test_grid_edges_belong_to_edge_cells(self):
        # the grid is 16 cells of stride 32: [0, 512] on both axes
        for (x, y), cell in [((0.0, 0.0), (0, 0)), ((512.0, 512.0), (15, 15)),
                             ((512.0, 0.0), (15, 0)), ((511.9, 32.0), (15, 1))]:
            out = assign_anchors(CenterBox(x, y, 10, 10), self.CFG, 0.213)
            assert all(c == cell for c, _ in out)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            assign_anchors(CenterBox(0, 0, 1, 1), self.CFG, 0.0)
