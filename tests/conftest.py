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


def host() -> dict:
    """The numpy version and platform a pinned output was taken on."""
    return {"numpy": np.__version__,
            "platform": "-".join((platform.system(), platform.machine(), *platform.libc_ver()))}


def assert_pinned(path, key, got: dict) -> None:
    """Each entry of `got` must equal the one under `key` in the pinned JSON
    file at `path`. Float reprs depend on libm and numpy's own math, so when
    an entry differs on another numpy or platform than the file's, the test
    skips, naming both."""
    pinned = json.loads(path.read_text())
    want = {name: pinned[key][name] for name in got}
    if got != want and host() != pinned["host"]:
        pytest.skip(f"output taken on {pinned['host']}, run on {host()}")
    for name in got:
        assert got[name] == want[name], name


def write_pinned(path, key, got: dict, **fields) -> None:
    """Rewrite the pinned JSON file at `path`: `fields`, this host, then `got`
    under `key`. A change that moves a pinned output on purpose runs its
    test module as a script, which calls this."""
    path.write_text(json.dumps({**fields, "host": host(), key: got}, indent=2) + "\n")
