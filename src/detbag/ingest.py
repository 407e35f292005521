"""Dataset I/O: COCO-subset annotation and results JSON, binary PPM (P6) images.

Only the fields listed on the record types are read; unknown JSON fields
are ignored. PPM is the single native raster format; convert other corpora
with any standard tool (e.g. ImageMagick's `convert img.jpg img.ppm`).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import asdict, dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from detbag.geometry import MAX_SHAPE_AREA, Box, _corners_ok
from detbag.nms import Detection


@dataclass(frozen=True)
class ImageInfo:
    id: int
    file_name: str
    width: int
    height: int


@dataclass(frozen=True)
class AnnotationRec:
    id: int
    image_id: int
    bbox: tuple[float, float, float, float]  # x, y, w, h
    category_id: int
    weight: float = 1.0  # mixed-label augmentation weight, in (0, 1]

    def to_box(self) -> Box:
        x, y, w, h = self.bbox
        return Box(x, y, x + w, y + h)

    def to_dict(self) -> dict:
        """The COCO record; `weight` is written only when it is not 1."""
        rec = {"id": self.id, "image_id": self.image_id, "bbox": list(self.bbox),
               "category_id": self.category_id}
        if self.weight != 1.0:
            rec["weight"] = self.weight
        return rec


@dataclass(frozen=True)
class Category:
    id: int
    name: str


@dataclass(frozen=True)
class DatasetIndex:
    images: tuple[ImageInfo, ...]
    annotations: tuple[AnnotationRec, ...]
    categories: tuple[Category, ...]

    def boxes_for_image(self, image_id: int) -> list[tuple[Box, int]]:
        return [(a.to_box(), a.category_id) for a in self.annotations
                if a.image_id == image_id]

    def truths_by_image(self) -> dict[int, list[tuple[Box, int]]]:
        """Per-image labeled boxes for every image, including empty ones."""
        out: dict[int, list[tuple[Box, int]]] = {im.id: [] for im in self.images}
        for a in self.annotations:
            out[a.image_id].append((a.to_box(), a.category_id))
        return out

    def to_dict(self) -> dict:
        return {"images": [asdict(im) for im in self.images],
                "annotations": [a.to_dict() for a in self.annotations],
                "categories": [asdict(c) for c in self.categories]}


def _field(record: dict, key: str, what: str):
    try:
        return record[key]
    except KeyError:
        raise ValueError(f"{what} is missing field {key!r}: {record}") from None


def _all_numbers(*values) -> bool:
    """Every value is a JSON number: a real that is not a boolean. Plain ints
    and floats, the types `json` produces, pass on their exact type."""
    for v in values:
        if type(v) is not float and type(v) is not int and (
                not isinstance(v, Real) or isinstance(v, bool)):
            return False
    return True


def _int_field(record: dict, key: str, what: str) -> int:
    """A JSON integer field. An integral float such as 1.0 and a non-boolean
    `Integral` such as `np.int64` are accepted and returned as `int`; 1.7,
    booleans and numeric strings are rejected, not truncated or cast."""
    value = _field(record, key, what)
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{what} field {key!r} must be an integer: {record}")
    return int(value)


def _xywh(bbox) -> tuple[float, float, float, float]:
    """The floats of a record's `[x, y, w, h]`: TypeError unless a list or tuple of
    four JSON numbers, ValueError for an integer past the float range or a negative
    side. The caller applies `geometry`'s corner rule to `(x, y, x + w, y + h)`."""
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4 or not _all_numbers(*bbox):
        raise TypeError(f"bbox must be [x, y, w, h]: {bbox}")
    x, y, w, h = bbox
    try:
        x, y, w, h = float(x), float(y), float(w), float(h)
    except OverflowError:
        raise ValueError(f"non-finite bbox: {bbox}") from None
    if w < 0 or h < 0:
        raise ValueError(f"negative bbox size: {bbox}")
    return x, y, w, h


def _check_unique(ids: set[int], new_id: int, what: str, record: dict) -> None:
    if new_id in ids:
        raise ValueError(f"duplicate {what} id {new_id}: {record}")
    ids.add(new_id)


def read_json(path):
    """The JSON value in a UTF-8 file. Raises ValueError naming the file when
    it is not UTF-8, not JSON, or nested too deeply to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from exc


def load_annotations(path) -> DatasetIndex:
    """Parse a COCO-subset annotation file and verify referential integrity.

    Raises ValueError naming the offending record on malformed structure,
    duplicate, fractional or dangling ids, image sizes that are not positive
    or lie past the float range, a bbox that is NaN or infinite (Python's
    `json` reads NaN and Infinity) or holds an integer past the float range,
    or a label weight outside (0, 1]; and naming the file as `read_json` does.
    """
    return parse_annotations(read_json(path))


def parse_annotations(data: dict) -> DatasetIndex:
    if not isinstance(data, dict):
        raise ValueError("annotation JSON must be an object, "
                         f"not {type(data).__name__}")
    for key in ("images", "annotations", "categories"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"annotation JSON needs a top-level {key!r} array")
        for i, rec in enumerate(data[key]):
            if not isinstance(rec, dict):
                raise ValueError(f"{key} record #{i} must be an object: {rec!r}")

    images, image_ids = [], set()
    for rec in data["images"]:
        im = ImageInfo(_int_field(rec, "id", "image"),
                       str(_field(rec, "file_name", "image")),
                       _int_field(rec, "width", "image"),
                       _int_field(rec, "height", "image"))
        _check_unique(image_ids, im.id, "image", rec)
        # a JSON integer can lie past the float range that sizes are scaled in
        if not (0 < im.width <= sys.float_info.max and 0 < im.height <= sys.float_info.max):
            raise ValueError(f"image {im.id} has non-positive or non-finite size "
                             f"{im.width}x{im.height}")
        images.append(im)
    categories, category_ids = [], set()
    for rec in data["categories"]:
        cat = Category(_int_field(rec, "id", "category"),
                       str(_field(rec, "name", "category")))
        _check_unique(category_ids, cat.id, "category", rec)
        categories.append(cat)

    annotations, annotation_ids = [], set()
    for rec in data["annotations"]:
        ann_id = _int_field(rec, "id", "annotation")
        _check_unique(annotation_ids, ann_id, "annotation", rec)
        bbox = _field(rec, "bbox", "annotation")
        try:
            xywh = x, y, w, h = _xywh(bbox)
            if not _corners_ok(x, y, x + w, y + h):
                raise ValueError
        except TypeError as exc:
            raise ValueError(f"annotation {ann_id} {exc}") from None
        except ValueError:
            raise ValueError(f"annotation {ann_id} has a non-finite bbox or area above "
                             f"{MAX_SHAPE_AREA}, or a negative size: {bbox}") from None
        weight = rec.get("weight", 1.0)
        if (type(weight) is not float and not _all_numbers(weight)) or not 0.0 < weight <= 1.0:
            raise ValueError(f"annotation {ann_id} weight outside (0, 1]: {weight!r}")
        ann = AnnotationRec(ann_id, _int_field(rec, "image_id", "annotation"), xywh,
                            _int_field(rec, "category_id", "annotation"),
                            float(weight))
        if ann.image_id not in image_ids:
            raise ValueError(
                f"annotation {ann.id} references missing image {ann.image_id}")
        if ann.category_id not in category_ids:
            raise ValueError(
                f"annotation {ann.id} references missing category {ann.category_id}")
        annotations.append(ann)
    return DatasetIndex(tuple(images), tuple(annotations), tuple(categories))


def parse_coco_detections(records: Sequence[Mapping]) -> dict[int, list[Detection]]:
    """Group COCO results records (image_id, category_id, bbox [x,y,w,h], score)
    into per-image detection lists: ids are integers, the bbox follows the
    annotations' rule, the score is a number, else ValueError names the record."""
    out: dict[int, list[Detection]] = {}
    for i, rec in enumerate(records):
        try:
            img = _int_field(rec, "image_id", "detection")
            cid = _int_field(rec, "category_id", "detection")
            x, y, w, h = _xywh(rec["bbox"])
            box = Box(x, y, x + w, y + h)
            score = rec["score"]
            if type(score) is not float and not _all_numbers(score):  # json's floats skip the call
                raise TypeError(f"score must be a number: {score!r}")
            out.setdefault(img, []).append(Detection(box, float(score), cid))
        except OverflowError:  # float() of an integer past the float range
            raise ValueError(f"bad detection record #{i}: non-finite score: {rec}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad detection record #{i}: {exc}") from exc
    return out


def save_annotations(index: DatasetIndex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(index.to_dict(), fh, indent=1)


# whitespace (bytes `\s` is the six ASCII bytes) and `#` comments, then a token
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def load_image(path) -> np.ndarray:
    """Read a binary PPM (P6) into an (H, W, 3) float array in [0, 1]."""
    raw = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        match = _PPM_TOKEN.match(raw, pos)
        pos = match.end()
        if not match[1]:
            raise ValueError(f"{path}: truncated PPM header")
        return match[1]

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


def save_image(image: np.ndarray, path) -> None:
    """Write an (H, W, 3) float array in [0, 1] as binary PPM, maxval 255."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"image must be (H, W, 3): {img.shape}")
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
