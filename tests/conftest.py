import json
import platform

import numpy as np
import pytest

from detbag.ingest import save_image


def write_dataset(root, boxes_per_image, image_size=(64, 64), with_images=False,
                  categories=(1,), rng=None):
    """Write a COCO-subset dataset; boxes_per_image is a list (one entry per
    image) of [x, y, w, h] bbox lists. Returns the annotations path."""
    w, h = image_size
    images, annotations = [], []
    ann_id = 1
    for img_id, bboxes in enumerate(boxes_per_image, start=1):
        name = f"img_{img_id:04d}.ppm"
        images.append({"id": img_id, "file_name": name, "width": w, "height": h})
        for i, bbox in enumerate(bboxes):
            annotations.append({"id": ann_id, "image_id": img_id,
                                "bbox": list(bbox),
                                "category_id": categories[i % len(categories)]})
            ann_id += 1
        if with_images:
            gen = rng if rng is not None else np.random.default_rng(img_id)
            save_image(gen.random((h, w, 3)), root / name)
    payload = {"images": images, "annotations": annotations,
               "categories": [{"id": c, "name": f"class{c}"} for c in categories]}
    path = root / "annotations.json"
    path.write_text(json.dumps(payload))
    return path


def write_detections(root, records, name="detections.json"):
    path = root / name
    path.write_text(json.dumps(records))
    return path


def host(python: bool = False) -> dict:
    """The numpy version and platform a pinned output was taken on, and with
    `python` the Python version, for outputs that depend on it."""
    out = {"numpy": np.__version__,
           "platform": "-".join((platform.system(), platform.machine(), *platform.libc_ver()))}
    if python:
        out["python"] = platform.python_version()
    return out


def assert_pinned(path, key, got: dict, python: bool = False) -> None:
    """Each entry of `got` must equal the one under `key` in the pinned JSON
    file at `path`. Float reprs depend on libm and numpy's own math, so when
    an entry differs on another host than the file's (see `host`), the test
    skips, naming both."""
    pinned = json.loads(path.read_text())
    want = {name: pinned[key][name] for name in got}
    if got != want and host(python) != pinned["host"]:
        pytest.skip(f"output taken on {pinned['host']}, run on {host(python)}")
    for name in got:
        assert got[name] == want[name], name


def write_pinned(path, key, got: dict, python: bool = False, **fields) -> None:
    """Rewrite the pinned JSON file at `path`: `fields`, this host, then `got`
    under `key`. A change that moves a pinned output on purpose runs its
    test module as a script, which calls this."""
    path.write_text(json.dumps({**fields, "host": host(python), key: got}, indent=2) + "\n")
