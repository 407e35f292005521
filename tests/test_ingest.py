import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detbag.geometry import Box
from detbag.ingest import (DatasetIndex, load_annotations, load_image,
                           parse_annotations, parse_coco_detections, save_annotations,
                           save_image)


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


# bbox entries: JSON numbers of every kind and size, and values that are not
# numbers; plus containers that are not four entries
BBOX_ENTRIES = [0, -0.0, 1.5, -1, 1e-320, 1e154, 1e308, -1.7e308, float("nan"),
                float("inf"), 10**400, True, "1", None]
ODD_BBOXES = [(0, 0, 5, 5), [0, 0, 5], [0, 0, 5, 5, 5], [], {"x": 0}, "0055", 5, None,
              np.array([0.0, 0.0, 5.0, 5.0]), [np.float64(1), np.int64(2), 3, 4],
              [0, 0, -1e-300, 5], [1, 0, -1e-20, 5], [1e308, 0, 1e308, 1]]


def parses_as_annotation(bbox):
    """The [x, y, w, h] floats, or None when `parse_annotations` refuses the
    bbox with a ValueError naming the annotation."""
    data = minimal_dataset()
    data["annotations"][0]["bbox"] = bbox
    try:
        return parse_annotations(data).annotations[0].bbox
    except ValueError as exc:
        assert str(exc).startswith("annotation 5 "), exc
        return None


def parses_as_detection(bbox):
    """The corner box, or None when `parse_coco_detections` refuses the bbox
    with a ValueError naming the record."""
    good = {"image_id": 1, "category_id": 2, "bbox": [0, 0, 5, 5], "score": 0.5}
    try:
        return parse_coco_detections([good, dict(good, bbox=bbox)])[1][1].box
    except ValueError as exc:
        assert str(exc).startswith("bad detection record #1: "), exc
        return None


@pytest.mark.filterwarnings("error")
def test_annotations_and_detections_share_one_bbox_rule():
    """Both readers accept exactly the same bboxes, as the same box."""
    grid = [list(b) for b in itertools.product(BBOX_ENTRIES, repeat=4)] + ODD_BBOXES
    accepted = 0
    for bbox in grid:
        xywh, box = parses_as_annotation(bbox), parses_as_detection(bbox)
        assert (xywh is None) == (box is None), bbox
        if box is not None:
            x, y, w, h = xywh
            assert box == Box(x, y, x + w, y + h) and w >= 0 and h >= 0, bbox
            accepted += 1
    assert 0 < accepted < len(grid)


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

    @pytest.mark.parametrize("header", [b"P6 +2 1 255\n", b"P6 1_0 1 255\n",
                                        b"P6 1 1 +255\n", b"P6 1 -1 255\n",
                                        b"P6 1 \xd9\xa1 255\n", b"P6 1 1 2.0\n"],
                             ids=["sign", "underscore", "signed-maxval", "negative",
                                  "arabic-indic-digit", "decimal-point"])
    def test_sizes_must_be_ascii_decimal(self, tmp_path, header):
        path = tmp_path / "signed.ppm"
        path.write_bytes(header + bytes(60))
        with pytest.raises(ValueError) as info:
            load_image(path)
        assert str(info.value).startswith(f"{path}: bad PPM header: not an ASCII decimal")

    def test_save_validates_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_image(np.zeros((4, 4)), tmp_path / "x.ppm")


def loop_load_image(path) -> np.ndarray:
    """`load_image` with its header tokens scanned by byte loops, as it was
    before they became one pattern; kept as the reference. Its sizes take
    the library's ASCII-decimal rule."""
    raw = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(raw):
            if raw[pos:pos + 1].isspace():
                pos += 1
            elif raw[pos:pos + 1] == b"#":
                while pos < len(raw) and raw[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PPM header")
        return raw[start:pos]

    magic = token()
    if magic != b"P6":
        raise ValueError(f"{path}: not a binary PPM (magic {magic!r}, expected P6)")
    def size() -> int:
        digits = token()
        if not digits.isdigit():  # ASCII decimal: no sign, `_` or other digits
            raise ValueError(f"not an ASCII decimal: {digits!r}")
        return int(digits)

    try:
        width, height, maxval = size(), size(), size()
    except ValueError as exc:
        raise ValueError(f"{path}: bad PPM header: {exc}") from exc
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: non-positive dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (need 8-bit)")
    pos += 1  # single whitespace byte after maxval
    payload = raw[pos:pos + width * height * 3]
    if len(payload) != width * height * 3:
        raise ValueError(f"{path}: truncated pixel payload "
                         f"({len(payload)} of {width * height * 3} bytes)")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return pixels.astype(float) / maxval


def read_outcome(load, path):
    """(shape, bytes) of the image, or the text of the ValueError."""
    try:
        image = load(path)
    except ValueError as exc:
        return str(exc)
    return image.shape, image.tobytes()


WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]  # bytes.isspace
# the one odd separator of a drawn header may hold comments, a bare `#`, or
# \x1c, \x85 and \xa0, which `str.isspace` accepts but a PPM token holds
ODD_SEPARATOR = st.lists(st.sampled_from(
    [*WHITESPACE, b"#", b"# note\n", b"#\x85 \n", b"\x1c", b"\x85", b"\xa0"]),
    max_size=3).map(b"".join)
# mostly valid tokens; an empty magic or a short list of sizes leaves a
# token out at that position
MAGIC = st.sampled_from([b"P6"] * 8 + [b"P5", b"P6#", b"p6", b""])
SIZE = st.sampled_from([b"1", b"2", b"3"] * 6 + [
    b"255", b"0", b"+2", b"-1", b"256", b"1#2", b"x", b"2\xa0", b"\x1c3", b"1_0"])
# up to one byte more than a 3x3 image needs, its length drawn evenly
PAYLOAD = st.integers(0, 28).flatmap(lambda n: st.binary(min_size=n, max_size=n))


@pytest.fixture(scope="module")
def ppm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ppm") / "drawn.ppm"


@settings(max_examples=600, deadline=None, derandomize=True)
@given(magic=MAGIC, sizes=st.lists(SIZE, max_size=3),
       separators=st.lists(st.sampled_from(WHITESPACE), min_size=5, max_size=5),
       odd=st.integers(0, 4), odd_separator=ODD_SEPARATOR, payload=PAYLOAD)
@example(magic=b"", sizes=[], separators=[b""] * 5, odd=0, odd_separator=b"",
         payload=b"")  # an empty file
@example(magic=b"P6", sizes=[b"1", b"1", b"255"], separators=[b"#c\n", b"\n", b"#1 2\n", b" ",
         b"\n"], odd=0, odd_separator=b"#c\n", payload=b"abc")
def test_pattern_tokens_equal_the_byte_loops(ppm_path, magic, sizes, separators, odd,
                                             odd_separator, payload):
    """Header tokens with the one odd separator at any position, then a
    payload: `load_image` returns the same image or raises the same text."""
    separators[odd] = odd_separator
    tokens = [magic, *sizes]
    raw = b"".join(sep + tok for sep, tok in zip(separators, tokens))
    ppm_path.write_bytes(raw + separators[len(tokens)] + payload)
    assert read_outcome(load_image, ppm_path) == read_outcome(loop_load_image, ppm_path)
