import json

import numpy as np
import pytest

from conftest import write_dataset, write_detections
from detbag.cli import main
from detbag.ingest import load_annotations


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

    def test_missing_images_listed(self, tmp_path, capsys):
        ann = write_dataset(tmp_path, [[[8, 8, 16, 12]]] * 2,
                            image_size=(32, 32), with_images=False)
        code, _, err = run(capsys, "augment", str(ann), str(tmp_path),
                           "--op", "blur", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "img_0001.ppm" in err and "img_0002.ppm" in err


class TestBenchNms:
    def test_single_detection_single_survivor(self, capsys):
        code, out, _ = run(capsys, "bench-nms", "--n", "1", "--json")
        assert code == 0
        rows = json.loads(out)
        assert {r["variant"] for r in rows} == {"greedy", "soft", "diou"}
        assert all(r["survivors"] == 1 for r in rows)

    def test_oracle_check_passes_at_cutoff(self, capsys):
        # bench-nms only times; the greedy-vs-reference check on this set is
        # tests/test_nms.py::TestGreedy::test_matches_brute_force_on_bench_nms_set
        code, out, _ = run(capsys, "bench-nms", "--n", "2000", "--variant",
                           "greedy", "--json")
        assert code == 0
        [row] = json.loads(out)
        assert set(row) == {"variant", "survivors", "seconds"}
        assert row["variant"] == "greedy"

    def test_identical_seeds_identical_counts(self, capsys):
        _, out1, _ = run(capsys, "bench-nms", "--n", "300", "--seed", "9",
                         "--json")
        _, out2, _ = run(capsys, "bench-nms", "--n", "300", "--seed", "9",
                         "--json")
        counts1 = [r["survivors"] for r in json.loads(out1)]
        counts2 = [r["survivors"] for r in json.loads(out2)]
        assert counts1 == counts2


class TestSchedule:
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
