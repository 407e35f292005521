import heapq
import itertools
import math
import logging
import warnings

import numpy as np
import pytest

from detbag import evolve as evolve_module
from detbag.decode import Anchor, shape_iou
from detbag.geometry import MAX_SHAPE_AREA, Box, box_iou, iou
from detbag.evolve import (PARENT_POOL, GAConfig, GenerationStats, HyperEntry, HyperVector,
                           KMeansResult, anchor_recall, evolve, evolve_anchors, kmeans_anchors)


def sphere_fitness(target: dict[str, float]):
    """Synthetic test objective: negative squared distance to a target point
    in hyperparameter space (maximum 0 at the target)."""
    def fitness(vec: HyperVector) -> float:
        return -sum((vec[name] - t) ** 2 for name, t in target.items())
    return fitness


def three_entry_vector(values=(5.0, 5.0, 5.0)):
    return HyperVector({
        name: HyperEntry(v, 0.01, 10.0, 0.2)
        for name, v in zip(("a", "b", "c"), values)})


class TestHyperVector:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            HyperEntry(2.0, 0.0, 1.0)

    def test_with_values_clamps(self):
        vec = three_entry_vector()
        out = vec.with_values({"a": 100.0, "b": -5.0})
        assert out["a"] == 10.0
        assert out["b"] == 0.01
        assert out["c"] == 5.0


def heapq_sample_parent(pool, rng):
    """The parent draw over the whole pool of (fitness, vector) candidates, as
    it ran before `evolve` kept its best few: the oracle for that ranking."""
    ranked = heapq.nsmallest(PARENT_POOL, range(len(pool)),
                             key=lambda i: (-pool[i][0], i))
    fits = np.array([pool[i][0] for i in ranked])
    weights = fits - fits.min() + 1e-12
    weights /= weights.sum()
    return pool[ranked[int(rng.choice(len(ranked), p=weights))]][1]


def pool_evolve(seed, fitness, cfg):
    """`evolve` keeping every candidate and drawing through `heapq_sample_parent`."""
    rng = np.random.default_rng(cfg.seed)
    seed_fit = float(fitness(seed))
    pool = [(seed_fit, seed)]
    best_fit, best_vec = seed_fit, seed
    history = [GenerationStats(0, best_fit, seed_fit)]
    for gen in range(1, cfg.generations + 1):
        gen_fits = []
        for _ in range(cfg.population):
            child = evolve_module._mutate(heapq_sample_parent(pool, rng), rng)
            f = float(fitness(child))
            if not np.isfinite(f):
                continue
            pool.append((f, child))
            gen_fits.append(f)
            if f > best_fit:
                best_fit, best_vec = f, child
        mean = float(np.mean(gen_fits)) if gen_fits else float("nan")
        history.append(GenerationStats(gen, best_fit, mean))
    return best_vec, history


class TestEvolve:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_whole_pool_reference_under_ties(self, seed):
        """Fitness rounded to 0.1 ties often, so the draw depends on ranking
        equal fitnesses by evaluation order; every 7th candidate is NaN."""
        sphere = sphere_fitness({"a": 2.0, "b": 8.0, "c": 1.0})

        def tied(calls):
            def fitness(vec):
                return math.nan if next(calls) % 7 == 6 else round(sphere(vec) / 10.0, 1)
            return fitness

        cfg = GAConfig(population=7, generations=25, seed=seed)
        best, history = evolve(three_entry_vector(), tied(itertools.count()), cfg)
        want_best, want_history = pool_evolve(three_entry_vector(), tied(itertools.count()), cfg)
        assert best.values() == want_best.values()
        assert repr(history) == repr(want_history)

    def test_best_improves_over_seed_on_sphere(self):
        fitness = sphere_fitness({"a": 2.0, "b": 8.0, "c": 1.0})
        seed = three_entry_vector()
        best, history = evolve(seed, fitness, GAConfig(population=10,
                                                       generations=50, seed=3))
        assert history[-1].best > history[0].best
        assert fitness(best) == history[-1].best

    def test_history_best_nondecreasing(self):
        for seed in range(5):
            _, history = evolve(three_entry_vector(),
                                sphere_fitness({"a": 9.0, "b": 0.5, "c": 3.0}),
                                GAConfig(population=8, generations=30, seed=seed))
            bests = [h.best for h in history]
            assert bests == sorted(bests)
            assert [h.generation for h in history] == list(range(len(history)))

    def test_long_run_converges_near_optimum(self):
        target = {"a": 2.5, "b": 7.5}
        seed = HyperVector({"a": HyperEntry(9.5, 0.01, 10.0, 0.2),
                            "b": HyperEntry(0.5, 0.01, 10.0, 0.2)})
        calls = 0

        def fitness(vec):
            nonlocal calls
            calls += 1
            return sphere_fitness(target)(vec)

        best, history = evolve(seed, fitness,
                               GAConfig(population=10, generations=200, seed=4))
        assert math.hypot(best["a"] - target["a"], best["b"] - target["b"]) < 0.05
        # at an equal evaluation budget the GA must match or beat random search
        rs = np.random.default_rng(4).uniform(0.01, 10.0, (calls, 2))
        rs_best = max(-((a - 2.5) ** 2 + (b - 7.5) ** 2) for a, b in rs)
        assert history[-1].best >= rs_best

    def test_bounds_respected_by_all_candidates(self):
        seen = []

        def recording_fitness(vec):
            seen.append(vec)
            return -abs(vec["a"] - 3.0)

        seed = HyperVector({"a": HyperEntry(9.9, 0.5, 10.0, 1.5)})
        evolve(seed, recording_fitness, GAConfig(population=10, generations=20,
                                                 seed=1))
        for vec in seen:
            e = vec.entries["a"]
            assert e.low <= e.value <= e.high

    def test_identical_seeds_identical_trajectories(self):
        fitness = sphere_fitness({"a": 2.0, "b": 7.0, "c": 4.0})
        cfg = GAConfig(population=6, generations=20, seed=11)
        best1, hist1 = evolve(three_entry_vector(), fitness, cfg)
        best2, hist2 = evolve(three_entry_vector(), fitness, cfg)
        assert best1.values() == best2.values()
        assert hist1 == hist2

    def test_non_finite_candidates_discarded(self, caplog):
        calls = itertools.count()

        def sometimes_nan(vec):
            return float("nan") if next(calls) % 3 == 1 else -abs(vec["a"])

        seed = HyperVector({"a": HyperEntry(5.0, 0.01, 10.0, 0.3)})
        with caplog.at_level(logging.WARNING, logger="detbag.evolve"):
            best, history = evolve(seed, sometimes_nan,
                                   GAConfig(population=6, generations=10, seed=2))
        assert any("non-finite" in rec.message for rec in caplog.records)
        assert np.isfinite(history[-1].best)

    def test_seed_must_be_finite(self):
        with pytest.raises(ValueError):
            evolve(three_entry_vector(), lambda v: float("inf") - float("inf"),
                   GAConfig())

    def test_config_validated(self):
        with pytest.raises(ValueError):
            GAConfig(population=0)


def wh_iou_matrix(shapes_a, shapes_b):
    """Pairwise IoU of concentric (w, h) shapes, (n, 2) x (m, 2) -> (n, m),
    from the private kernel behind `anchor_recall` and `kmeans_anchors`:
    both inputs checked as their shapes are, one kernel call per column."""
    w, h = evolve_module._shape_columns(shapes_a, "shapes_a")
    bw, bh = evolve_module._shape_columns(shapes_b, "shapes_b")
    return np.stack([evolve_module._shape_iou(w, h, aw, ah, w * h) for aw, ah in zip(bw, bh)],
                    axis=1)


class TestWhIou:
    def test_concentric_values(self):
        m = wh_iou_matrix(np.array([[10.0, 10.0]]),
                          np.array([[10.0, 10.0], [20.0, 20.0], [5.0, 40.0]]))
        assert np.allclose(m, [[1.0, 0.25, 0.2]])

    def test_matches_scalar_iou_of_centred_boxes(self):
        rng = np.random.default_rng(149)
        a = rng.uniform(0.5, 300.0, (50, 2))
        b = np.vstack([rng.uniform(0.5, 300.0, (9, 2)), a[:3]])

        def centred(w, h):
            return Box(-w / 2, -h / 2, w / 2, h / 2)

        assert wh_iou_matrix(a, b).tolist() == [
            [iou(centred(*sa), centred(*sb)) for sb in b] for sa in a]

    def test_anchor_recall(self):
        shapes = [(10.0, 10.0), (100.0, 100.0)]
        recall, mean_iou = anchor_recall(shapes, [Anchor(10, 10)], 0.213)
        assert recall == 0.5
        assert mean_iou == pytest.approx((1.0 + 0.01) / 2)

    def test_anchor_recall_rejects_empty_anchor_list(self):
        with pytest.raises(ValueError, match="anchors"):
            anchor_recall([(10.0, 10.0)], [], 0.213)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_anchor_recall_rejects_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            anchor_recall([(10.0, 10.0)], [Anchor(10, 10)], threshold)

    @pytest.mark.parametrize("shapes", [[], np.zeros((0, 2)), np.ones((4, 3)),
                                        np.ones(4), np.ones((2, 2, 2))])
    def test_anchor_recall_rejects_empty_or_misshapen_shapes(self, shapes):
        with pytest.raises(ValueError, match="shapes"):
            anchor_recall(shapes, [Anchor(10, 10)], 0.213)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_side_rejected(self, bad):
        shapes = np.array([[10.0, 10.0], [5.0, bad]])
        with pytest.raises(ValueError, match="shapes"):
            anchor_recall(shapes, [Anchor(10, 10)], 0.213)
        with pytest.raises(ValueError, match="shapes_b"):
            wh_iou_matrix(np.ones((3, 2)), shapes)

    @pytest.mark.parametrize("shapes", [[], np.zeros((0, 2)), np.ones((4, 3)),
                                        np.ones(4)])
    def test_wh_iou_matrix_rejects_empty_or_misshapen_shapes(self, shapes):
        with pytest.raises(ValueError, match="shapes_a"):
            wh_iou_matrix(shapes, np.ones((3, 2)))
        with pytest.raises(ValueError, match="shapes_b"):
            wh_iou_matrix(np.ones((3, 2)), shapes)

    # an infinite side, alone or against a zero side, an area that
    # overflows, and a finite area whose union with itself would overflow
    # are rejected, with no numpy warning
    @pytest.mark.parametrize("row", [(10.0, math.inf), (math.inf, 0.0), (1e200, 1e200),
                                     (1e154, 1e154)],
                             ids=["inf-side", "inf-by-zero", "area-overflow",
                                  "area-above-bound"])
    def test_infinite_side_or_area_rejected(self, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="shapes"):
                anchor_recall([row], [Anchor(3, 4)], 0.5)
            with pytest.raises(ValueError, match="shapes_a"):
                wh_iou_matrix([row], np.ones((3, 2)))
            with pytest.raises(ValueError, match="shapes_b"):
                wh_iou_matrix(np.ones((3, 2)), [(5.0, 5.0), row])

    def test_largest_shape_scores_iou_one_against_itself(self):
        # the union of two shapes of area MAX_SHAPE_AREA is finite
        big = (2.0**511, MAX_SHAPE_AREA / 2.0**511)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert anchor_recall([big, big], [Anchor(*big)], 0.5) == (1.0, 1.0)
            assert wh_iou_matrix([big], [big]).tolist() == [[1.0]]


def corner_wh_iou(shapes_a, shapes_b):
    """Oracle: the concentric corner boxes through the (n, 1, 4) x (1, m, 4)
    `box_iou` broadcast."""
    a = np.hstack([-shapes_a / 2.0, shapes_a / 2.0])
    b = np.hstack([-shapes_b / 2.0, shapes_b / 2.0])
    return box_iou(a[:, None], b[None, :])


def shape_sets(rng, kind):
    n, m = int(rng.integers(1, 400)), int(rng.integers(1, 12))
    if kind == "integer":
        a, b = rng.integers(0, 60, (n, 2)), rng.integers(1, 60, (m, 2))
        return a.astype(float), b.astype(float)
    a = np.exp(rng.uniform(-12, 12, (n, 2)))
    b = np.exp(rng.uniform(-12, 12, (m, 2)))
    a[rng.random(a.shape) < 0.1] = 0.0  # zero sides, some whole zero shapes
    b[rng.random(b.shape) < 0.1] = 0.0
    return a, b


class TestExactAgainstCornerForm:
    @pytest.mark.parametrize("kind", ["integer", "log-uniform"])
    def test_wh_iou_matrix_equals_corner_box_iou(self, kind):
        rng = np.random.default_rng(181)
        for _ in range(150):
            a, b = shape_sets(rng, kind)
            got = wh_iou_matrix(a, b)
            assert got.shape == (len(a), len(b))
            assert got.tobytes() == corner_wh_iou(a, b).tobytes()
            assert np.array_equal(got, wh_iou_matrix(b, a).T)

    @pytest.mark.parametrize("kind", ["integer", "log-uniform"])
    def test_wh_iou_matrix_equals_scalar_shape_iou(self, kind):
        rng = np.random.default_rng(193)
        for _ in range(20):
            a, b = shape_sets(rng, kind)
            a = a[:40]
            assert wh_iou_matrix(a, b).tolist() == [
                [shape_iou(*sa, *sb) for sb in b.tolist()] for sa in a.tolist()]

    @pytest.mark.parametrize("kind", ["integer", "log-uniform"])
    def test_anchor_recall_equals_corner_box_iou(self, kind):
        rng = np.random.default_rng(191)
        for _ in range(150):
            shapes, anchor_shapes = shape_sets(rng, kind)
            anchor_shapes = anchor_shapes[(anchor_shapes > 0).all(axis=1)]
            if len(anchor_shapes) == 0:
                continue
            anchors = [Anchor(w, h) for w, h in anchor_shapes]
            best = corner_wh_iou(shapes, anchor_shapes).max(axis=1)
            for thr in (0.213, float(best[0])):
                if not 0.0 < thr < 1.0:  # an IoU of exactly 0 or 1
                    with pytest.raises(ValueError, match="threshold"):
                        anchor_recall(shapes, anchors, thr)
                    continue
                assert anchor_recall(shapes, anchors, thr) == (
                    float((best > thr).mean()), float(best.mean()))


def masked_shape_iou(w, h, aw, ah):
    """The kernel as it divided under a `union > 0` mask for every anchor:
    the reference for the unmasked divide at a positive anchor area."""
    inter = np.minimum(w, aw) * np.minimum(h, ah)
    union = w * h
    union += aw * ah
    union -= inter
    out = np.zeros(len(w))
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def per_anchor_recall(w, h, anchors, threshold):
    """`_recall` as one masked kernel call per anchor, each forming w * h."""
    best = masked_shape_iou(w, h, float(anchors[0].w), float(anchors[0].h))
    for a in anchors[1:]:
        np.maximum(best, masked_shape_iou(w, h, float(a.w), float(a.h)), out=best)
    return float((best > threshold).mean()), float(best.mean())


class TestKernelExactness:
    @pytest.mark.parametrize("kind", ["integer", "log-uniform"])
    def test_recall_equals_the_per_anchor_form(self, kind):
        rng = np.random.default_rng(197)
        for _ in range(120):
            shapes, anchor_shapes = shape_sets(rng, kind)
            anchor_shapes = anchor_shapes[(anchor_shapes > 0).all(axis=1)]
            if rng.random() < 0.2:  # an anchor whose area underflows to 0
                anchor_shapes = np.vstack([anchor_shapes, [1e-200, 1e-200]])
            if len(anchor_shapes) == 0:
                continue
            anchors = [Anchor(w, h) for w, h in anchor_shapes]
            w, h = evolve_module._shape_columns(shapes, "shapes")
            threshold = float(rng.uniform(0.01, 0.99))
            got = evolve_module._recall(w, h, anchors, threshold)
            assert repr(got) == repr(per_anchor_recall(w, h, anchors, threshold))  # Python floats
            for a in anchors:
                got = evolve_module._shape_iou(w, h, a.w, a.h, w * h, np.full(len(w), np.nan))
                assert got.tobytes() == masked_shape_iou(w, h, a.w, a.h).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_underflowing_anchor_area_keeps_the_masked_divide(self):
        # zero and subnormal sides against anchors of area 0: every union is
        # 0 or a shape's own area, as the scalar `shape_iou` forms it
        w = np.array([0.0, 0.0, 1e-200, 3.0, 1e-200, 5e-324, 2.0, 1e-150])
        h = np.array([0.0, 4.0, 1e-200, 0.0, 2e-200, 1.0, 1e-310, 1e-150])
        anchors = [Anchor(1e-200, 1e-200), Anchor(1e-300, 1e-30), Anchor(5e-324, 5e-324)]
        best = np.zeros(len(w))
        for a in anchors:
            assert a.w * a.h == 0.0
            want = [shape_iou(wi, hi, a.w, a.h) for wi, hi in zip(w.tolist(), h.tolist())]
            assert evolve_module._shape_iou(w, h, a.w, a.h, w * h).tolist() == want
            buf = np.full(len(w), np.nan)
            assert evolve_module._shape_iou(w, h, a.w, a.h, w * h, buf) is buf
            assert buf.tolist() == want
            best = np.maximum(best, want)
        assert evolve_module._recall(w, h, anchors, 0.5) == (
            float((best > 0.5).mean()), float(best.mean()))
        # -0.0 passes the shape rule, and this union is -0.0: the result is still +0.0
        w, h = np.array([2.0]), np.array([-0.0])
        got = evolve_module._shape_iou(w, h, -0.0, 3.0, w * h)
        assert got.tobytes() == np.zeros(1).tobytes()


def planted_clusters(rng, n_each=200):
    c1 = np.column_stack([rng.normal(10, 0.6, n_each), rng.normal(10, 0.6, n_each)])
    c2 = np.column_stack([rng.normal(50, 2.0, n_each), rng.normal(30, 1.5, n_each)])
    return np.clip(c1, 0.5, None), np.clip(c2, 0.5, None)


def masked_kmeans(boxes, k, rng):
    """`kmeans_anchors` with a per-cluster mask scan for empties and for
    the medians: the reference its bincount/argsort bookkeeping must equal.
    Returns the result and the number of reseeds."""
    shapes = np.asarray(boxes, dtype=float).reshape(-1, 2)
    distinct = np.unique(shapes, axis=0)
    centroids = distinct[rng.choice(len(distinct), size=k, replace=False)].copy()
    best_centroids = centroids.copy()
    assign = np.full(len(shapes), -1)
    distances, reseeds = [], 0
    for _ in range(100):
        dist = 1.0 - corner_wh_iou(shapes, centroids)
        new_assign = dist.argmin(axis=1)
        per_box = dist[np.arange(len(shapes)), new_assign]
        for c in range(k):
            if not (new_assign == c).any():
                reseeds += 1
                far = int(per_box.argmax())
                centroids[c] = shapes[far]
                new_assign[far] = c
                per_box[far] = 0.0
        total = float(per_box.sum())
        if distances and total >= distances[-1]:
            break
        distances.append(total)
        best_centroids = centroids.copy()
        if (new_assign == assign).all():
            break
        assign = new_assign
        for c in range(k):
            centroids[c] = np.median(shapes[assign == c], axis=0)
    order = np.argsort(best_centroids[:, 0] * best_centroids[:, 1], kind="stable")
    anchors = [Anchor(float(w), float(h)) for w, h in best_centroids[order]]
    return KMeansResult(anchors, distances), reseeds


# (shapes, k, rng seed, reseeds the reference makes)
KMEANS_SETS = [
    ([(5.0, 5.0), (10.0, 20.0), (40.0, 8.0)], 3, 1, 0),
    ([(2, 3), (1, 2), (3, 1), (4, 3), (1, 5), (5, 3), (3, 2)], 5, 800, 1),
    ([(1, 5), (4, 1), (1, 3), (3, 3), (4, 4), (1, 1), (5, 3), (4, 2)], 4, 1191, 1),
    (np.vstack(planted_clusters(np.random.default_rng(163))), 2, 7, 0),
    (np.exp(np.random.default_rng(0).normal(np.log(40), 0.8, (150, 2))), 5, 0, 0),
    (np.random.default_rng(173).uniform(5, 80, (100, 2)), 4, 173, 0),
    (np.exp(np.random.default_rng(3).normal(3.0, 0.6, (3000, 2))), 9, 3, 0),
]


class TestKMeansAnchors:
    @pytest.mark.parametrize("shapes,k,seed,reseeds", KMEANS_SETS)
    def test_equals_masked_reference(self, shapes, k, seed, reseeds):
        want, made = masked_kmeans(shapes, k, np.random.default_rng(seed))
        assert made == reseeds
        assert repr(kmeans_anchors(shapes, k, rng=np.random.default_rng(seed))) == repr(want)

    def test_equals_masked_reference_on_repeated_shapes(self):
        # grid shapes repeat and share sides, so centroid seeding draws from
        # the distinct rows and assignment ties between equal centroids
        rng = np.random.default_rng(223)
        for _ in range(60):
            shapes = rng.integers(1, 6, (int(rng.integers(3, 120)), 2)) * 4.0
            k = int(rng.integers(1, len(np.unique(shapes, axis=0)) + 1))
            seed = int(rng.integers(1 << 30))
            want, _ = masked_kmeans(shapes, k, np.random.default_rng(seed))
            assert repr(kmeans_anchors(shapes, k, rng=np.random.default_rng(seed))) == repr(want)

    def test_reseed_that_empties_an_earlier_cluster(self):
        # the reseed of cluster c takes the last box of a cluster before c;
        # that cluster keeps its centroid until the next assignment step
        shapes = [(27.74, 18.73), (5.80, 8.09), (16.59, 45.78), (10.28, 17.48),
                  (12.90, 22.58), (13.27, 58.90), (39.54, 19.13), (26.48, 27.31),
                  (15.60, 15.93), (5.65, 178.29), (40.76, 9.58)]
        res = kmeans_anchors(shapes, 8, rng=np.random.default_rng(6550))
        assert len(res.anchors) == 8
        assert all(math.isfinite(a.w) and math.isfinite(a.h) for a in res.anchors)
        d = res.distance_per_iteration
        assert all(a >= b for a, b in zip(d, d[1:]))

    def test_identical_boxes_k1(self):
        res = kmeans_anchors([(12.0, 20.0)] * 50, 1, rng=np.random.default_rng(0))
        assert (res.anchors[0].w, res.anchors[0].h) == (12.0, 20.0)
        assert anchor_recall([(12.0, 20.0)] * 50, res.anchors, 0.5) == (1.0, 1.0)

    def test_each_box_its_own_anchor(self):
        boxes = [(5.0, 5.0), (10.0, 20.0), (40.0, 8.0)]
        res = kmeans_anchors(boxes, 3, rng=np.random.default_rng(1))
        assert sorted((a.w, a.h) for a in res.anchors) == sorted(boxes)
        assert res.distance_per_iteration[-1] == pytest.approx(0.0)

    def test_two_planted_clusters_within_5pct(self):
        rng = np.random.default_rng(163)
        c1, c2 = planted_clusters(rng)
        shapes = np.vstack([c1, c2])
        res = kmeans_anchors(shapes, 2, rng=np.random.default_rng(7))
        med1, med2 = np.median(c1, axis=0), np.median(c2, axis=0)
        got = np.array([[a.w, a.h] for a in res.anchors])
        assert np.abs(got[0] - med1).max() / med1.max() < 0.05
        assert np.abs(got[1] - med2).max() / med2.max() < 0.05

    def test_matches_exhaustive_two_way_split_on_small_instance(self):
        rng = np.random.default_rng(167)
        c1, c2 = planted_clusters(rng, n_each=6)
        shapes = np.vstack([c1, c2])
        res = kmeans_anchors(shapes, 2, rng=np.random.default_rng(5))

        # oracle: enumerate every 2-partition, medians as centroids
        best = np.inf
        n = len(shapes)
        for bits in range(1, 2**n - 1):
            part = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
            cents = np.array([np.median(shapes[part], axis=0),
                              np.median(shapes[~part], axis=0)])
            d = 1.0 - wh_iou_matrix(shapes, cents)
            best = min(best, float(d.min(axis=1).sum()))
        assert res.distance_per_iteration[-1] <= best * 1.05 + 1e-9

    def test_distance_nonincreasing(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            shapes = np.exp(rng.normal(np.log(40), 0.8, (150, 2)))
            res = kmeans_anchors(shapes, 5, rng=rng)
            d = res.distance_per_iteration
            assert all(a >= b for a, b in zip(d, d[1:]))

    def test_anchors_sorted_by_area(self):
        rng = np.random.default_rng(173)
        shapes = rng.uniform(5, 80, (100, 2))
        res = kmeans_anchors(shapes, 4, rng=rng)
        areas = [a.w * a.h for a in res.anchors]
        assert areas == sorted(areas)
        assert isinstance(res, KMeansResult)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            kmeans_anchors([], 1, rng=rng)
        with pytest.raises(ValueError):
            kmeans_anchors([(1.0, 1.0)] * 5, 2, rng=rng)  # only one distinct shape
        with pytest.raises(ValueError):
            kmeans_anchors([(0.0, 1.0)], 1, rng=rng)

    # an infinite, NaN or overflowing shape, a (2, 3) array that reshaping
    # used to read as three shapes, and a flat list
    @pytest.mark.parametrize("boxes", [
        [(10.0, math.inf), (5.0, 5.0), (8.0, 3.0)],
        [(1e200, 1e200), (5.0, 5.0), (8.0, 3.0)],
        [(math.nan, 3.0), (5.0, 5.0), (8.0, 3.0)],
        np.array([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]]),
        [10.0, 20.0, 30.0, 40.0],
        [(1e154, 1e154), (5.0, 5.0), (8.0, 3.0)],
    ], ids=["inf-side", "area-overflow", "nan-side", "2x3", "flat", "area-above-bound"])
    def test_boxes_checked_as_anchor_recall_shapes(self, boxes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="boxes"):
                kmeans_anchors(boxes, 2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("iters", [0, -1])
    def test_iters_below_one_rejected(self, iters):
        with pytest.raises(ValueError, match="iters"):
            kmeans_anchors([(5.0, 5.0), (10.0, 20.0)], 2, iters, rng=np.random.default_rng(0))


def cli_evolve_anchors(shapes, seed_anchors, threshold, *, max_side, population,
                       generations, seed):
    """Oracle: the GA set-up `detbag optimize-anchors --evolve` ran before
    `evolve_anchors`, for seed sides within [1, max_side]; `anchor_recall`
    scores through the module's `_recall`, so a patched scorer reaches both."""
    seed_scores = evolve_module.anchor_recall(shapes, seed_anchors, threshold)
    entries = {}
    for i, a in enumerate(seed_anchors):
        entries[f"w{i}"] = HyperEntry(a.w, 1.0, max_side, 0.1)
        entries[f"h{i}"] = HyperEntry(a.h, 1.0, max_side, 0.1)
    seed_vec = HyperVector(entries)
    k = len(seed_anchors)

    def fitness(vec):
        anchors = [Anchor(vec[f"w{i}"], vec[f"h{i}"]) for i in range(k)]
        recall, mean_iou = evolve_module.anchor_recall(shapes, anchors, threshold)
        return recall + 1e-6 * mean_iou

    cfg = GAConfig(population=population, generations=generations, seed=seed)
    best, history = evolve(seed_vec, fitness, cfg)
    anchors = sorted((Anchor(best[f"w{i}"], best[f"h{i}"]) for i in range(k)),
                     key=lambda a: a.w * a.h)
    recall, mean_iou = evolve_module.anchor_recall(shapes, anchors, threshold)
    if (recall, mean_iou) < seed_scores:
        anchors, (recall, mean_iou) = list(seed_anchors), seed_scores
    return anchors, recall, mean_iou, history


class TestEvolveAnchors:
    @pytest.mark.parametrize("k", [1, 3, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_cli_setup(self, seed, k):
        rng = np.random.default_rng(seed)
        shapes = np.exp(rng.normal(np.log(40), 0.8, (300, 2)))
        seed_anchors = kmeans_anchors(shapes, k, rng=rng).anchors
        kw = dict(max_side=1024.0, population=6, generations=8, seed=seed)
        got = evolve_anchors(shapes, seed_anchors, 0.213, **kw)
        assert repr(got) == repr(cli_evolve_anchors(shapes, seed_anchors, 0.213, **kw))
        assert got[1] >= anchor_recall(shapes, seed_anchors, 0.213)[0]
        assert [h.generation for h in got[3]] == list(range(9))

    def test_seed_wins_when_the_ga_scores_lower(self, monkeypatch):
        real = evolve_module._recall

        def recall_falls_as_iou_rises(w, h, anchors, threshold):
            # fitness still rises with mean IoU, but the (recall, mean IoU)
            # comparison then ranks every improvement below the seed
            _, mean_iou = real(w, h, anchors, threshold)
            return -1e-9 * mean_iou, mean_iou

        monkeypatch.setattr(evolve_module, "_recall", recall_falls_as_iou_rises)
        shapes = np.exp(np.random.default_rng(5).normal(np.log(40), 0.5, (200, 2)))
        seed_anchors = [Anchor(5.0, 5.0), Anchor(300.0, 200.0)]
        kw = dict(max_side=512.0, population=5, generations=5, seed=5)
        got = evolve_anchors(shapes, seed_anchors, 0.213, **kw)
        assert repr(got) == repr(cli_evolve_anchors(shapes, seed_anchors, 0.213, **kw))
        anchors, _, _, history = got
        assert anchors == seed_anchors and history[-1].best > history[0].best

    def test_shapes_checked_once_per_search(self, monkeypatch):
        calls = []
        real = evolve_module._shape_columns

        def counting(shapes, name):
            calls.append(name)
            return real(shapes, name)

        monkeypatch.setattr(evolve_module, "_shape_columns", counting)
        shapes = np.exp(np.random.default_rng(7).normal(np.log(40), 0.5, (100, 2)))
        evolve_anchors(shapes, [Anchor(20.0, 30.0), Anchor(60.0, 40.0)], 0.213,
                       max_side=512.0, population=4, generations=3, seed=7)
        assert calls == ["shapes"]

    @pytest.mark.parametrize("threshold,anchors,match", [
        (1.5, [Anchor(3.0, 4.0)], "threshold"), (0.5, [], "anchors")])
    def test_checks_threshold_and_anchors_as_anchor_recall(self, threshold, anchors, match):
        with pytest.raises(ValueError, match=match):
            evolve_anchors([(3.0, 4.0)], anchors, threshold, max_side=8.0,
                           population=2, generations=1, seed=0)

    def test_seed_sides_outside_bounds_start_clamped(self):
        # a sub-pixel and an oversized k-means anchor: the GA starts from
        # their sides clamped into [1, max_side]
        rng = np.random.default_rng(11)
        shapes = np.vstack([rng.uniform(0.05, 0.9, (40, 2)), rng.uniform(2.0, 7.0, (40, 2))])
        seed_anchors = [Anchor(0.4, 0.3), Anchor(20.0, 9.0)]
        kw = dict(max_side=8.0, population=4, generations=5, seed=11)
        anchors, recall, mean_iou, history = evolve_anchors(shapes, seed_anchors, 0.213, **kw)
        seed_scores = anchor_recall(shapes, seed_anchors, 0.213)
        assert (recall, mean_iou) >= seed_scores
        assert (recall, mean_iou) == anchor_recall(shapes, anchors, 0.213)
        clamped_recall, clamped_iou = anchor_recall(
            shapes, [Anchor(1.0, 1.0), Anchor(8.0, 8.0)], 0.213)
        assert history[0].best == clamped_recall + 1e-6 * clamped_iou
        assert all(1.0 <= side <= 8.0 for a in anchors for side in (a.w, a.h))

    def test_unclamped_seed_wins_when_it_scores_higher(self):
        # every shape is sub-pixel, so no anchor within [1, max_side] matches
        shapes = np.random.default_rng(13).uniform(0.2, 0.5, (50, 2))
        seed_anchors = [Anchor(0.35, 0.35)]
        anchors, recall, mean_iou, history = evolve_anchors(
            shapes, seed_anchors, 0.213, max_side=4.0, population=4, generations=3, seed=13)
        assert anchors == seed_anchors
        assert (recall, mean_iou) == anchor_recall(shapes, seed_anchors, 0.213)
        assert history[-1].best < recall

