import json

import numpy as np
import pytest

from detbag.geometry import Box
from detbag.ingest import (DatasetIndex, load_annotations, load_image,
                           parse_annotations, save_annotations, save_image)


def minimal_dataset():
    return {
        "images": [{"id": 1, "file_name": "a.ppm", "width": 64, "height": 48}],
        "annotations": [{"id": 5, "image_id": 1, "bbox": [10, 20, 30, 40],
                         "category_id": 2}],
        "categories": [{"id": 2, "name": "cat"}],
    }


class TestAnnotations:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(minimal_dataset()))
        index = load_annotations(path)
        assert (len(index.images), len(index.annotations), len(index.categories)) \
            == (1, 1, 1)

    def test_bbox_to_corner_box(self):
        index = parse_annotations(minimal_dataset())
        assert index.annotations[0].to_box() == Box(10, 20, 40, 60)

    def test_dangling_image_id_names_annotation(self):
        data = minimal_dataset()
        data["annotations"][0]["image_id"] = 99
        with pytest.raises(ValueError, match="annotation 5"):
            parse_annotations(data)

    def test_dangling_category_named(self):
        data = minimal_dataset()
        data["annotations"][0]["category_id"] = 42
        with pytest.raises(ValueError, match="annotation 5"):
            parse_annotations(data)

    def test_negative_bbox_rejected(self):
        data = minimal_dataset()
        data["annotations"][0]["bbox"] = [0, 0, -3, 5]
        with pytest.raises(ValueError, match="annotation 5"):
            parse_annotations(data)

    @pytest.mark.parametrize("bbox", [[float("nan"), 0, 3, 5], [0, 0, float("inf"), 5],
                                      [0, float("-inf"), 3, 5], [0, 0, 3, float("nan")]])
    def test_non_finite_bbox_names_annotation(self, bbox):
        data = minimal_dataset()
        data["annotations"][0]["bbox"] = bbox
        with pytest.raises(ValueError, match="annotation 5 has a non-finite bbox"):
            parse_annotations(data)

    def test_missing_top_level_array(self):
        with pytest.raises(ValueError, match="categories"):
            parse_annotations({"images": [], "annotations": []})

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="must be an object, not list"):
            parse_annotations([minimal_dataset()])

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d["images"].append(7), "images record #1"),
        (lambda d: d["categories"].insert(0, "cat"), "categories record #0"),
        (lambda d: d["annotations"][0].update(bbox=5), "annotation 5 bbox"),
        (lambda d: d["annotations"][0].update(bbox=[1, "2", 3, 4]),
         "annotation 5 bbox"),
        (lambda d: d["annotations"][0].update(bbox=[1, 2, True, 4]),
         "annotation 5 bbox"),
        (lambda d: d["images"][0].update(id=None), "image field 'id'"),
        (lambda d: d["annotations"][0].update(category_id=[2]),
         "annotation field 'category_id'"),
        (lambda d: d["images"][0].update(id=True), "image field 'id'"),
        (lambda d: d["images"][0].update(width="64"), "image field 'width'"),
        (lambda d: d["images"][0].update(id=1.7), "image field 'id'"),
        (lambda d: d["annotations"][0].update(id=5.7), "annotation field 'id'"),
        (lambda d: d["annotations"][0].update(image_id=1.7),
         "annotation field 'image_id'"),
        (lambda d: d["annotations"][0].update(category_id=2.7),
         "annotation field 'category_id'"),
        (lambda d: d["categories"][0].update(id=2.7), "category field 'id'"),
    ], ids=["image-not-object", "category-not-object", "scalar-bbox",
            "string-in-bbox", "bool-in-bbox", "null-id", "list-category-id",
            "bool-id", "string-width", "fractional-image-id",
            "fractional-annotation-id", "fractional-image_id",
            "fractional-category_id", "fractional-category-id"])
    def test_wrong_types_name_the_record(self, mutate, match):
        data = minimal_dataset()
        mutate(data)
        with pytest.raises(ValueError, match=match):
            parse_annotations(data)

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d["images"].append(dict(d["images"][0], file_name="b.ppm")),
         "duplicate image id 1"),
        (lambda d: d["annotations"].append(dict(d["annotations"][0])),
         "duplicate annotation id 5"),
        (lambda d: d["categories"].append({"id": 2, "name": "dog"}),
         "duplicate category id 2"),
    ], ids=["image", "annotation", "category"])
    def test_duplicate_ids_rejected(self, mutate, match):
        data = minimal_dataset()
        mutate(data)
        with pytest.raises(ValueError, match=match):
            parse_annotations(data)

    def test_integral_float_ids_accepted(self):
        data = minimal_dataset()
        data["images"][0]["id"] = 1.0
        data["annotations"][0].update(id=5.0, image_id=1.0, category_id=2.0)
        data["categories"][0]["id"] = 2.0
        assert parse_annotations(data) == parse_annotations(minimal_dataset())

    def test_numpy_integer_fields_accepted(self):
        data = minimal_dataset()
        data["images"][0].update(id=np.int64(1), width=np.int32(64))
        data["annotations"][0].update(id=np.int64(5), image_id=np.int64(1),
                                      bbox=[np.int64(10), 20, 30, 40])
        index = parse_annotations(data)
        assert index == parse_annotations(minimal_dataset())
        assert type(index.images[0].id) is int and type(index.images[0].width) is int

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            load_annotations(path)

    def test_unknown_fields_ignored(self):
        data = minimal_dataset()
        data["images"][0]["license"] = 4
        data["annotations"][0]["segmentation"] = []
        data["info"] = {"year": 2020}
        assert isinstance(parse_annotations(data), DatasetIndex)

    def test_serialize_round_trip_fixed_point(self, tmp_path):
        index = parse_annotations(minimal_dataset())
        path = tmp_path / "roundtrip.json"
        save_annotations(index, path)
        again = load_annotations(path)
        assert again == index
        save_annotations(again, path)
        assert load_annotations(path) == again

    def test_weight_defaults_to_one_and_is_not_written(self):
        index = parse_annotations(minimal_dataset())
        assert index.annotations[0].weight == 1.0
        assert "weight" not in index.to_dict()["annotations"][0]

    @pytest.mark.parametrize("weight", [0.25, 1, 1.0])
    def test_weight_round_trips(self, tmp_path, weight):
        data = minimal_dataset()
        data["annotations"][0]["weight"] = weight
        index = parse_annotations(data)
        assert index.annotations[0].weight == weight
        path = tmp_path / "weighted.json"
        save_annotations(index, path)
        assert load_annotations(path) == index

    @pytest.mark.parametrize("weight", [0.0, -0.5, 1.5, float("nan"), float("inf"),
                                        True, "0.5", None])
    def test_weight_outside_unit_interval_names_annotation(self, weight):
        data = minimal_dataset()
        data["annotations"][0]["weight"] = weight
        with pytest.raises(ValueError, match="annotation 5 weight"):
            parse_annotations(data)

    def test_truths_by_image_includes_empty_images(self):
        data = minimal_dataset()
        data["images"].append({"id": 2, "file_name": "b.ppm",
                               "width": 8, "height": 8})
        truths = parse_annotations(data).truths_by_image()
        assert truths[2] == []
        assert truths[1] == [(Box(10, 20, 40, 60), 2)]


class TestPpm:
    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "px.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        img = load_image(path)
        assert img.shape == (1, 1, 3)
        assert np.array_equal(img[0, 0], [1.0, 0.0, 0.0])

    def test_two_by_two_gradient_exact(self, tmp_path):
        payload = bytes([0, 0, 0, 51, 51, 51, 102, 102, 102, 255, 255, 255])
        path = tmp_path / "grad.ppm"
        path.write_bytes(b"P6 2 2 255\n" + payload)
        img = load_image(path)
        expected = np.array([[[0, 0, 0], [51, 51, 51]],
                             [[102, 102, 102], [255, 255, 255]]]) / 255.0
        assert np.array_equal(img, expected)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n# maxval next\n255\n\x10\x20\x30")
        img = load_image(path)
        assert np.allclose(img[0, 0], np.array([0x10, 0x20, 0x30]) / 255.0)

    def test_save_load_idempotent(self, tmp_path):
        rng = np.random.default_rng(179)
        img = rng.random((7, 5, 3))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        save_image(img, p1)
        once = load_image(p1)
        save_image(once, p2)
        assert np.array_equal(load_image(p2), once)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "pgm.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="P6"):
            load_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="truncated"):
            load_image(path)

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            load_image(path)

    def test_save_validates_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_image(np.zeros((4, 4)), tmp_path / "x.ppm")
