"""Tier-1 pins the output of `detbag optimize-anchors`, with and without the
genetic search, as text and as JSON, on one seeded annotation file.

The k-means and GA results are float reprs that depend on numpy's random
streams and its math, so the expected file records the numpy version and
platform it was taken on; on another one differing output skips, naming
both. A change that moves the output on purpose rewrites the file with
`python tests/test_cli_golden.py`.
"""

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from conftest import assert_pinned, write_dataset, write_pinned  # noqa: E402
from detbag.cli import main  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("optimize_anchors_golden.json")
GA = ["--evolve", "--evolve-generations", "12", "--evolve-population", "8"]
CASES = {
    "kmeans-text": ["--k", "6", "--seed", "3"],
    "kmeans-json": ["--k", "6", "--seed", "3", "--json"],
    "evolve-text": ["--k", "6", "--seed", "3", *GA],
    "evolve-json": ["--k", "6", "--seed", "3", *GA, "--json"],
}


def annotation_file(root: Path) -> Path:
    """Four 512x384 images of 60 boxes each; sides on a 0.5 px grid, so some
    shapes repeat and many share a width."""
    rng = np.random.default_rng(307)
    images = []
    for _ in range(4):
        sides = np.round(rng.uniform(4.0, 160.0, (60, 2)) * 2.0) / 2.0
        images.append([[3.0, 2.0, float(w), float(h)] for w, h in sides])
    return write_dataset(root, images, image_size=(512, 384))


def outputs(root: Path) -> dict[str, str]:
    ann = str(annotation_file(root))
    out = {}
    for name, argv in CASES.items():
        buf = StringIO()
        with redirect_stdout(buf):
            assert main(["optimize-anchors", ann, *argv]) == 0
        out[name] = buf.getvalue()
    return out


def test_optimize_anchors_output_pinned(tmp_path):
    assert_pinned(GOLDEN_PATH, "outputs", outputs(tmp_path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_pinned(GOLDEN_PATH, "outputs", outputs(Path(tmp)))
