import itertools
import json
import math

import numpy as np
import pytest

from conftest import write_dataset, write_detections
from detbag import evolve as evolve_module
from detbag.cli import main
from detbag.ingest import load_annotations, save_annotations


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimizeAnchors:
    def test_identical_boxes_k1(self, tmp_path, capsys):
        ann = write_dataset(tmp_path, [[[0, 0, 10, 20]]] * 6,
                            image_size=(512, 512))
        code, out, _ = run(capsys, "optimize-anchors", str(ann), "--k", "1",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["anchors"] == [[10.0, 20.0]]
        assert payload["recall"] == 1.0

    def test_two_clusters_recovered(self, tmp_path, capsys):
        rng = np.random.default_rng(227)
        boxes = []
        for _ in range(300):
            boxes.append([5, 5, rng.normal(10, 0.5), rng.normal(10, 0.5)])
            boxes.append([5, 5, rng.normal(50, 2.0), rng.normal(30, 1.5)])
        ann = write_dataset(tmp_path, [boxes], image_size=(512, 512))
        code, out, _ = run(capsys, "optimize-anchors", str(ann), "--k", "2",
                           "--json")
        assert code == 0
        anchors = json.loads(out)["anchors"]
        assert abs(anchors[0][0] - 10) < 1.0 and abs(anchors[0][1] - 10) < 1.0
        assert abs(anchors[1][0] - 50) < 3.0 and abs(anchors[1][1] - 30) < 2.0

    def test_anchor_areas_nondecreasing(self, tmp_path, capsys):
        rng = np.random.default_rng(229)
        boxes = [[5, 5, float(rng.uniform(4, 100)), float(rng.uniform(4, 100))]
                 for _ in range(200)]
        ann = write_dataset(tmp_path, [boxes], image_size=(512, 512))
        code, out, _ = run(capsys, "optimize-anchors", str(ann), "--k", "9",
                           "--json")
        assert code == 0
        anchors = json.loads(out)["anchors"]
        assert len(anchors) == 9
        areas = [w * h for w, h in anchors]
        assert areas == sorted(areas)

    def test_evolve_never_reports_lower_recall(self, tmp_path, capsys):
        rng = np.random.default_rng(233)
        boxes = [[5, 5, float(rng.uniform(4, 120)), float(rng.uniform(4, 120))]
                 for _ in range(120)]
        ann = write_dataset(tmp_path, [boxes], image_size=(512, 512))
        _, out_plain, _ = run(capsys, "optimize-anchors", str(ann), "--k", "3",
                              "--json")
        _, out_ga, _ = run(capsys, "optimize-anchors", str(ann), "--k", "3",
                           "--evolve", "--evolve-generations", "10", "--json")
        assert json.loads(out_ga)["recall"] >= json.loads(out_plain)["recall"]

    def test_json_reports_kmeans_and_ga_histories(self, tmp_path, capsys):
        rng = np.random.default_rng(239)
        boxes = [[5, 5, float(rng.uniform(4, 120)), float(rng.uniform(4, 120))]
                 for _ in range(80)]
        ann = write_dataset(tmp_path, [boxes], image_size=(512, 512))
        _, out, _ = run(capsys, "optimize-anchors", str(ann), "--k", "3", "--json")
        plain = json.loads(out)
        distances = plain["kmeans_distance_per_iteration"]
        assert len(distances) >= 1
        assert distances == sorted(distances, reverse=True)
        assert "ga_history" not in plain

        _, out, _ = run(capsys, "optimize-anchors", str(ann), "--k", "3",
                        "--evolve", "--evolve-generations", "6", "--json")
        ga = json.loads(out)
        assert ga["kmeans_distance_per_iteration"] == distances
        history = ga["ga_history"]
        assert [row[0] for row in history] == list(range(7))
        bests = [row[1] for row in history]
        assert bests == sorted(bests)
        assert all(isinstance(row[2], float) for row in history)

    def test_ga_generation_without_valid_candidate_has_null_mean(
            self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(241)
        boxes = [[5, 5, float(rng.uniform(4, 120)), float(rng.uniform(4, 120))]
                 for _ in range(40)]
        ann = write_dataset(tmp_path, [boxes], image_size=(512, 512))
        calls = itertools.count()
        recall = evolve_module._recall

        def first_generation_fails(w, h, anchors, threshold):
            # call 0 scores the k-means anchors, call 1 the GA's seed vector,
            # calls 2 and 3 the two children of generation 1
            if next(calls) in (2, 3):
                return math.nan, math.nan
            return recall(w, h, anchors, threshold)

        monkeypatch.setattr(evolve_module, "_recall", first_generation_fails)
        code, out, err = run(capsys, "optimize-anchors", str(ann), "--k", "2",
                             "--evolve", "--evolve-generations", "2",
                             "--evolve-population", "2", "--json")
        assert code == 0, err
        history = json.loads(out)["ga_history"]
        assert history[1][2] is None
        assert isinstance(history[2][2], float)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_evolve_from_sub_pixel_anchors(self, tmp_path, capsys, json_flag):
        # at --resolution 2 the 1-60 px boxes of 64x48 images shrink below a
        # pixel, and so do k-means sides that the GA bounds to [1, 4]
        rng = np.random.default_rng(251)
        boxes = [[[2, 2, float(rng.uniform(1, 60)), float(rng.uniform(1, 40))]
                  for _ in range(6)] for _ in range(3)]
        ann = write_dataset(tmp_path, boxes, image_size=(64, 48))
        argv = ["optimize-anchors", str(ann), "--k", "3", "--resolution", "2", *json_flag]
        code, plain, err = run(capsys, *argv)
        assert code == 0, err
        code, out, err = run(capsys, *argv, "--evolve")
        assert (code, err) == (0, "")
        if json_flag:
            plain, out = json.loads(plain), json.loads(out)
            assert min(min(a) for a in plain["anchors"]) < 1.0
            assert out["recall"] >= plain["recall"]
        else:
            assert out.splitlines()[-1].startswith("recall@0.213: ")

    @pytest.mark.parametrize("threshold", ["nan", "1.5"])
    def test_bad_threshold_fails_cleanly(self, tmp_path, capsys, threshold):
        ann = write_dataset(tmp_path, [[[0, 0, 10, 20]]] * 6, image_size=(512, 512))
        code, out, err = run(capsys, "optimize-anchors", str(ann), "--k", "1",
                             "--threshold", threshold)
        assert code == 1 and out == ""
        assert err.startswith("error: threshold ") and "Traceback" not in err

    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_iters_below_one_fails_cleanly(self, tmp_path, capsys, iters):
        ann = write_dataset(tmp_path, [[[0, 0, 10, 20]]] * 6, image_size=(512, 512))
        code, out, err = run(capsys, "optimize-anchors", str(ann), "--k", "1",
                             "--iters", iters)
        assert code == 1 and out == ""
        assert err == f"error: iters must be >= 1: {iters}\n"

    @pytest.mark.parametrize("resolution", [0, -5, 10**300, 10**400])
    def test_bad_resolution_names_itself(self, tmp_path, capsys, resolution):
        ann = write_dataset(tmp_path, [[[0, 0, 10, 20]]] * 6, image_size=(512, 512))
        code, out, err = run(capsys, "optimize-anchors", str(ann), "--k", "1",
                             f"--resolution={resolution}")
        assert code == 1 and out == ""
        assert err.startswith("error: --resolution ") and err.count("\n") == 1

    def test_negative_seed_named_before_loading(self, tmp_path, capsys):
        code, out, err = run(capsys, "optimize-anchors", str(tmp_path / "missing.json"),
                             "--seed", "-1")
        assert (code, out, err) == (1, "", "error: --seed must be >= 0: -1\n")

    def test_boxes_rescaled_to_resolution(self, tmp_path, capsys):
        # a 64x64 image upscaled to resolution 512 stretches boxes by 8
        ann = write_dataset(tmp_path, [[[0, 0, 8, 4]]] * 3, image_size=(64, 64))
        _, out, _ = run(capsys, "optimize-anchors", str(ann), "--k", "1",
                        "--resolution", "512", "--json")
        assert json.loads(out)["anchors"] == [[64.0, 32.0]]


class TestEval:
    def test_perfect_detections_all_ones(self, tmp_path, capsys):
        ann = write_dataset(tmp_path, [[[10, 10, 40, 40]], [[5, 5, 50, 20]]])
        dets = write_detections(tmp_path, [
            {"image_id": 1, "category_id": 1, "bbox": [10, 10, 40, 40],
             "score": 0.9},
            {"image_id": 2, "category_id": 1, "bbox": [5, 5, 50, 20],
             "score": 0.8}])
        code, out, _ = run(capsys, "eval", str(dets), str(ann), "--json")
        assert code == 0
        result = json.loads(out)
        assert result["AP"] == 1.0 and result["AP50"] == 1.0 and result["AP75"] == 1.0

    def test_duplicates_suppressed_by_greedy(self, tmp_path, capsys):
        ann = write_dataset(tmp_path, [[[10, 10, 40, 40]]])
        rec = {"image_id": 1, "category_id": 1, "bbox": [10, 10, 40, 40],
               "score": 0.9}
        dup = dict(rec, score=0.6)
        clean = write_detections(tmp_path, [rec], "clean.json")
        doubled = write_detections(tmp_path, [rec, dup], "doubled.json")
        _, out_clean, _ = run(capsys, "eval", str(clean), str(ann), "--json")
        _, out_doubled, _ = run(capsys, "eval", str(doubled), str(ann),
                                "--nms", "greedy", "--nms-threshold", "0.5",
                                "--json")
        assert json.loads(out_doubled) == json.loads(out_clean)

    def test_diou_nms_preserves_offset_center_pair(self, tmp_path, capsys):
        # two true objects whose boxes overlap with iou ~ 0.54 but diou ~ 0.49
        ann = write_dataset(tmp_path, [[[0, 0, 2, 10], [0, 3, 2, 10]]])
        dets = write_detections(tmp_path, [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 2, 10], "score": 0.9},
            {"image_id": 1, "category_id": 1, "bbox": [0, 3, 2, 10], "score": 0.8}])
        _, out_greedy, _ = run(capsys, "eval", str(dets), str(ann),
                               "--nms", "greedy", "--nms-threshold", "0.5",
                               "--json")
        _, out_diou, _ = run(capsys, "eval", str(dets), str(ann),
                             "--nms", "diou", "--nms-threshold", "0.5", "--json")
        assert json.loads(out_diou)["AP"] >= json.loads(out_greedy)["AP"]
        assert json.loads(out_diou)["AP"] == 1.0

    # the arguments are checked even when no image has a detection
    @pytest.mark.parametrize("extra,name,n_dets", [
        (("--nms", "soft", "--nms-threshold", "nan"), "iou_threshold", 1),
        (("--nms", "soft", "--nms-threshold", "7.0"), "iou_threshold", 1),
        (("--nms", "soft", "--soft-mode", "gaussian", "--sigma", "nan"), "sigma", 1),
        (("--nms", "soft", "--nms-threshold", "nan"), "iou_threshold", 0),
        (("--nms", "greedy", "--nms-threshold", "7.0"), "iou_threshold", 0),
        (("--nms", "diou", "--nms-threshold", "-3"), "threshold", 0),
    ], ids=["nan-threshold", "threshold-above-one", "nan-sigma", "no-detections",
            "greedy-threshold-above-one", "diou-threshold-below-minus-one"])
    def test_bad_soft_nms_argument_fails_cleanly(self, tmp_path, capsys, extra, name,
                                                 n_dets):
        ann = write_dataset(tmp_path, [[[10, 10, 40, 40]]])
        dets = write_detections(tmp_path, [
            {"image_id": 1, "category_id": 1, "bbox": [10, 10, 40, 40], "score": 0.9}
        ][:n_dets])
        code, out, err = run(capsys, "eval", str(dets), str(ann), *extra)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name} ") and "Traceback" not in err

    def test_table_output(self, tmp_path, capsys):
        ann = write_dataset(tmp_path, [[[10, 10, 40, 40]]])
        dets = write_detections(tmp_path, [])
        code, out, _ = run(capsys, "eval", str(dets), str(ann))
        assert code == 0
        assert "AP50" in out and "AP_L" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        ann = write_dataset(tmp_path, [[[10, 10, 40, 40]]])
        code, _, err = run(capsys, "eval", str(tmp_path / "nope.json"), str(ann))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("payload", [
        [{"id": 1}],
        {"images": [{"id": 1, "file_name": "a.ppm", "width": 8, "height": 8}],
         "annotations": [{"id": 3, "image_id": 1, "bbox": 5, "category_id": 1}],
         "categories": [{"id": 1, "name": "c"}]},
        {"images": [{"id": 1, "file_name": "a.ppm", "width": 8, "height": 8},
                    {"id": 1, "file_name": "b.ppm", "width": 16, "height": 16}],
         "annotations": [], "categories": [{"id": 1, "name": "c"}]},
    ], ids=["top-level-array", "scalar-bbox", "duplicate-image-id"])
    def test_malformed_annotations_fail_cleanly(self, tmp_path, capsys, payload):
        ann = tmp_path / "annotations.json"
        ann.write_text(json.dumps(payload))
        dets = write_detections(tmp_path, [])
        code, out, err = run(capsys, "eval", str(dets), str(ann))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_fractional_detection_id_fails_cleanly(self, tmp_path, capsys):
        ann = write_dataset(tmp_path, [[[0, 0, 10, 10]]])
        dets = write_detections(tmp_path, [{"image_id": 1.7, "category_id": 1,
                                            "bbox": [0, 0, 10, 10], "score": 0.9}])
        code, out, err = run(capsys, "eval", str(dets), str(ann))
        assert code == 1 and out == ""
        assert err.startswith("error: bad detection record #0") and err.count("\n") == 1
        assert "Traceback" not in err

    # Python's json reads and writes these tokens as float nan and inf
    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_detection_fails_cleanly(self, tmp_path, capsys, token):
        ann = write_dataset(tmp_path, [[[0, 0, 10, 10]]])
        dets = write_detections(tmp_path, [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10], "score": 0.9},
            {"image_id": 1, "category_id": 1, "bbox": [float(token), 0, 10, 10],
             "score": 0.8}])
        assert token in dets.read_text()
        code, out, err = run(capsys, "eval", str(dets), str(ann))
        assert code == 1 and out == ""
        assert err.startswith("error: bad detection record #1") and err.count("\n") == 1
        assert "non-finite" in err

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
    @pytest.mark.parametrize("where,message", [
        ("detections", "error: bad detection record #1: degenerate or non-finite box or area"),
        ("annotations", "error: annotation 2 has a non-finite bbox or area")],
        ids=["detections", "annotations"])
    def test_overflowing_box_area_fails_cleanly(self, tmp_path, capsys, where, message):
        boxes = [[0, 0, 10, 10], [0, 0, 1e308, 1e308]]
        ann = write_dataset(tmp_path, [boxes if where == "annotations" else boxes[:1]])
        dets = write_detections(tmp_path, [
            {"image_id": 1, "category_id": 1, "bbox": bbox, "score": 0.9}
            for bbox in (boxes if where == "detections" else boxes[:1])])
        code, out, err = run(capsys, "eval", str(dets), str(ann))
        assert code == 1 and out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
    @pytest.mark.parametrize("nms", ["none", "greedy", "soft"])
    def test_intersection_past_the_float_range_scores_cleanly(self, tmp_path, capsys, nms):
        # the truth-to-detection and detection-to-detection intersection widths overflow
        ann = write_dataset(tmp_path, [[[-1.7e308, 0, 1e307, 1]]])
        dets = write_detections(tmp_path, [
            {"image_id": 1, "category_id": 1, "bbox": bbox, "score": score}
            for bbox, score in (([1.6e308, 0, 1e307, 1], 0.9),
                                ([-1.7e308, 0, 1e307, 1], 0.8))])
        code, out, err = run(capsys, "eval", str(dets), str(ann), "--nms", nms, "--json")
        assert (code, err) == (0, "")
        # the far detection is a false positive ranked above the true one
        assert json.loads(out) == {"AP": 0.5, "AP50": 0.5, "AP75": 0.5, "AP_S": None,
                                   "AP_M": None, "AP_L": 0.5}

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
    def test_diou_near_the_float_range_scores_like_greedy(self, tmp_path, capsys):
        # the detections' centres and enclosing width overflow; DIoU keeps both
        ann = write_dataset(tmp_path, [[[-1.7e308, 0, 1e307, 1]]])
        dets = write_detections(tmp_path, [
            {"image_id": 1, "category_id": 1, "bbox": bbox, "score": score}
            for bbox, score in (([1.6e308, 0, 1e307, 1], 0.9),
                                ([-1.7e308, 0, 1e307, 1], 0.8))])
        rows = [run(capsys, "eval", str(dets), str(ann), "--nms", nms, "--json")
                for nms in ("diou", "greedy")]
        assert rows[0] == rows[1]
        code, out, err = rows[0]
        assert (code, err) == (0, "") and json.loads(out)["AP"] == 0.5

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_annotation_fails_cleanly(self, tmp_path, capsys, token):
        ann = write_dataset(tmp_path, [[[0, 0, 10, 10], [0, 0, float(token), 10]]])
        assert token in ann.read_text()
        dets = write_detections(tmp_path, [])
        code, out, err = run(capsys, "eval", str(dets), str(ann))
        assert code == 1 and out == ""
        assert err.startswith("error: annotation 2 ") and err.count("\n") == 1
        assert "non-finite" in err


class TestAugment:
    def run_augment(self, tmp_path, capsys, op, out_name, n_images=4, seed="7",
                    extra=()):
        ann = write_dataset(tmp_path, [[[8, 8, 16, 12]]] * n_images,
                            image_size=(32, 32), with_images=True,
                            rng=np.random.default_rng(3))
        out_dir = tmp_path / out_name
        code, out, err = run(capsys, "augment", str(ann), str(tmp_path),
                             "--op", op, "--out-dir", str(out_dir),
                             "--seed", seed, "--out-size", "48", *extra)
        assert code == 0, err
        return out_dir

    @pytest.mark.parametrize("op,expected", [("mosaic", 1), ("mixup", 2),
                                             ("cutmix", 2), ("photometric", 4),
                                             ("blur", 4)])
    def test_output_arity(self, tmp_path, capsys, op, expected):
        out_dir = self.run_augment(tmp_path, capsys, op, f"out_{op}")
        assert len(list(out_dir.glob("*.ppm"))) == expected

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        d1 = self.run_augment(tmp_path, capsys, "mosaic", "first")
        d2 = self.run_augment(tmp_path, capsys, "mosaic", "second")
        files1 = sorted(p.name for p in d1.iterdir())
        assert files1 == sorted(p.name for p in d2.iterdir())
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_output_annotations_reload(self, tmp_path, capsys):
        out_dir = self.run_augment(tmp_path, capsys, "mosaic", "reload")
        index = load_annotations(out_dir / "annotations.json")
        assert len(index.images) == 1
        assert index.images[0].width == 48
        for ann in index.annotations:
            box = ann.to_box()
            assert 0 <= box.x_min <= box.x_max <= 48
            assert 0 <= box.y_min <= box.y_max <= 48

    def test_mixup_weights_survive_a_round_trip(self, tmp_path, capsys):
        out_dir = self.run_augment(tmp_path, capsys, "mixup", "mixed")
        path = out_dir / "annotations.json"
        index = load_annotations(path)
        written = [a.get("weight", 1.0) for a in json.loads(path.read_text())["annotations"]]
        weights = [a.weight for a in index.annotations]
        assert weights == written and len(weights) == 4
        assert all(0.0 < w < 1.0 for w in weights)
        assert weights[0] + weights[1] == pytest.approx(1.0)
        save_annotations(index, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        # a later op reads the weights back in and carries them to its output
        code, _, err = run(capsys, "augment", str(path), str(out_dir), "--op", "blur",
                           "--out-dir", str(tmp_path / "blurred"))
        assert code == 0, err
        blurred = load_annotations(tmp_path / "blurred" / "annotations.json")
        assert [a.weight for a in blurred.annotations] == weights

    @pytest.mark.parametrize("flag,value", [
        ("--brightness", "nan"), ("--contrast", "inf"), ("--hue", "inf"),
        ("--saturation", "nan"), ("--noise-sigma", "nan"),
        # finite, but the draw range 2 * value overflows
        ("--brightness", "1e308"), ("--contrast", "1e308"), ("--hue", "1e308"),
        ("--saturation", "9e307"),
        # negative: the draw range would be empty
        ("--brightness", "-5"), ("--contrast", "-0.5"), ("--hue", "-0.1"),
        ("--saturation", "-0.3"), ("--noise-sigma", "-1")])
    def test_non_finite_jitter_flag_fails_cleanly(self, tmp_path, capsys, flag, value):
        ann = write_dataset(tmp_path, [[[8, 8, 16, 12]]] * 2, image_size=(32, 32),
                            with_images=True, rng=np.random.default_rng(3))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "augment", str(ann), str(tmp_path),
                             "--op", "photometric", "--out-dir", str(out_dir),
                             flag, value)
        assert code == 1 and out == ""
        v = float(value)
        if not math.isfinite(v):
            assert err == f"error: {flag} must be finite: {v}\n"
        elif v < 0:
            assert err == f"error: {flag} must be >= 0: {v}\n"
        else:
            assert err == f"error: {flag} draws from a range 2 * {v} wide, which overflows\n"
        assert not out_dir.exists()

    # checked before loading: with fewer than 4 images mosaic never runs
    @pytest.mark.parametrize("n_images", [2, 4])
    @pytest.mark.parametrize("size", ["-4", "1"])
    def test_mosaic_out_size_below_two_fails_cleanly(self, tmp_path, capsys, n_images,
                                                     size):
        ann = write_dataset(tmp_path, [[[8, 8, 16, 12]]] * n_images, image_size=(32, 32),
                            with_images=True, rng=np.random.default_rng(3))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "augment", str(ann), str(tmp_path), "--op", "mosaic",
                             "--out-dir", str(out_dir), "--out-size", size)
        assert code == 1 and out == ""
        assert err == f"error: --out-size must be >= 2: {size}\n"
        assert not out_dir.exists()

    # checked before loading: the annotations file does not exist
    @pytest.mark.parametrize("argv,message", [
        (("--op", "blur", "--radius", "-1"), "--radius must be >= 0: -1"),
        (("--op", "mixup", "--seed", "-1"), "--seed must be >= 0: -1")])
    def test_bad_flag_named_before_loading(self, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "augment", str(tmp_path / "missing.json"), str(tmp_path),
                             "--out-dir", str(out_dir), *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_missing_images_listed(self, tmp_path, capsys):
        ann = write_dataset(tmp_path, [[[8, 8, 16, 12]]] * 2,
                            image_size=(32, 32), with_images=False)
        code, _, err = run(capsys, "augment", str(ann), str(tmp_path),
                           "--op", "blur", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "img_0001.ppm" in err and "img_0002.ppm" in err


class TestSchedule:
    @pytest.mark.parametrize("argv,name", [
        (("--kind", "cosine", "--lr-max", "nan"), "lr_max"),
        (("--kind", "cosine", "--lr-min", "inf"), "lr_min"),
        (("--kind", "step", "--lr0", "inf"), "lr0"),
        (("--kind", "step", "--factor", "nan"), "factor")])
    def test_non_finite_rate_fails_cleanly(self, capsys, argv, name):
        code, out, err = run(capsys, "schedule", "--steps", "2", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name} must be finite: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (("--kind", "step", "--factor", "1e200", "--milestones", "1,2", "--steps", "3"),
         "step rate lr0 * factor**2 overflows: lr0=0.01, factor=1e+200"),
        (("--kind", "step", "--lr0", "1e308", "--factor", "10", "--milestones", "1",
          "--steps", "2"), "step rate lr0 * factor**1 overflows: lr0=1e+308, factor=10.0"),
        (("--kind", "cosine", "--lr-max", "1e308", "--lr-min=-1e308", "--steps", "2"),
         "cosine rate overflows: lr_max=1e+308, lr_min=-1e+308")])
    def test_overflowing_rate_fails_cleanly(self, capsys, argv, message):
        code, out, err = run(capsys, "schedule", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("milestones,message", [
        ("x", "entry 1 is not an integer: 'x'"),
        ("1,,1.5", "entry 3 is not an integer: '1.5'")])
    def test_bad_milestone_entry_named(self, capsys, milestones, message):
        code, out, err = run(capsys, "schedule", "--kind", "step", f"--milestones={milestones}",
                             "--steps", "2")
        assert (code, out, err) == (1, "", f"error: --milestones {message}\n")

    @pytest.mark.parametrize("kind", ["cosine", "step"])
    def test_lr_max_and_lr0_spell_one_initial_rate(self, capsys, kind):
        outs = [run(capsys, "schedule", "--kind", kind, "--steps", "4", "--milestones", "2",
                    flag, "0.5") for flag in ("--lr-max", "--lr0")]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert outs[0][1].splitlines()[1] == "0,0.5"

    def test_cosine_endpoints_and_row_count(self, capsys):
        code, out, _ = run(capsys, "schedule", "--kind", "cosine",
                           "--steps", "100", "--lr-max", "0.01",
                           "--lr-min", "0.001")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,lr"
        assert len(lines) - 1 == 101
        assert float(lines[1].split(",")[1]) == pytest.approx(0.01)
        assert float(lines[-1].split(",")[1]) == pytest.approx(0.001)

    def test_step_default_milestones_drop_points(self, tmp_path, capsys):
        out_file = tmp_path / "sched.csv"
        code, _, _ = run(capsys, "schedule", "--kind", "step", "--steps",
                         "450000", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) - 1 == 450001
        by_step = dict(line.split(",") for line in (lines[400000],
                                                    lines[400001],
                                                    lines[450001]))
        assert float(by_step["399999"]) == pytest.approx(0.01)
        assert float(by_step["400000"]) == pytest.approx(0.001)
        assert float(by_step["450000"]) == pytest.approx(0.0001)

    def test_custom_milestones(self, capsys):
        _, out, _ = run(capsys, "schedule", "--kind", "step", "--steps", "30",
                        "--milestones", "10,20", "--lr0", "1.0",
                        "--factor", "0.5")
        lines = out.strip().splitlines()
        assert float(lines[10].split(",")[1]) == 1.0   # step 9
        assert float(lines[12].split(",")[1]) == 0.5   # step 11
        assert float(lines[22].split(",")[1]) == 0.25  # step 21
