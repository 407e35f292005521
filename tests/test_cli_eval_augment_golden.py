"""Tier-1 pins the output of `detbag eval` under every NMS variant, as text
and as JSON, on one seeded crowded results file, and the bytes that
`detbag augment --op photometric` writes, at identity and at default jitter.
A second expected file pins the bytes that the other four `augment` ops
write at two seeds, the CSV of both `schedule` kinds, and the exit code and
first `error:` line of one bad input per subcommand.

The crowded class has more than `nms._BLOCK` detections per image, with
scores on a 0.01 grid so that ties fall at the block cut, and one class has
a single detection per image. The expected file follows the rule of
`tests/conftest.py`'s `assert_pinned`; a change that moves the output on
purpose rewrites both files with `python tests/test_cli_eval_augment_golden.py`.
"""

import hashlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from conftest import assert_pinned, write_dataset, write_detections, write_pinned  # noqa: E402
from detbag.cli import main  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("eval_augment_golden.json")
MORE_GOLDEN_PATH = Path(__file__).with_name("augment_schedule_golden.json")
EVAL_CASES = {
    "none": ["--nms", "none"],
    "greedy": ["--nms", "greedy"],
    "diou": ["--nms", "diou"],
    "soft-linear": ["--nms", "soft"],
    "soft-gaussian": ["--nms", "soft", "--soft-mode", "gaussian"],
}
IDENTITY = ["--brightness", "0", "--contrast", "0", "--hue", "0", "--saturation", "0",
            "--noise-sigma", "0"]
AUGMENT_CASES = {"photometric-identity": IDENTITY, "photometric-default": []}
OPS = {"mosaic": ["--out-size", "50"], "mixup": [], "cutmix": [], "blur": ["--radius", "2"]}
SCHEDULE_CASES = {
    "cosine": ["--kind", "cosine", "--steps", "12", "--lr-max", "0.02", "--lr-min", "0.001"],
    "step": ["--kind", "step", "--steps", "12", "--milestones", "4,9", "--factor", "0.3"],
}
# {root} is the directory of the seeded input files
ERROR_CASES = {
    "optimize-anchors": ["optimize-anchors", "{root}/annotations.json", "--resolution", "0"],
    "eval": ["eval", "{root}/detections.json", "{root}/annotations.json",
             "--nms", "greedy", "--nms-threshold", "1.5"],
    "augment": ["augment", "{root}/annotations.json", "{root}", "--op", "blur",
                "--radius", "-1", "--out-dir", "{root}/blurred"],
    "schedule": ["schedule", "--kind", "cosine", "--steps", "0"],
}


def crowded_files(root: Path) -> tuple[Path, Path]:
    """Three 256x256 images with nine truths each, classes 1, 2, 3 in turn;
    per image, 60 class-1 detections jittered about its class-1 truths, 12
    of class 2 and one of class 3."""
    rng = np.random.default_rng(131)
    truths, records = [], []
    for img in range(1, 4):
        boxes = [[float(x), float(y), float(w), float(h)] for x, y, w, h in
                 np.round(np.column_stack([rng.uniform(0, 120, (9, 2)),
                                           rng.uniform(8, 130, (9, 2))]), 1)]
        truths.append(boxes)
        for cid, count in ((1, 60), (2, 12), (3, 1)):
            own = [b for i, b in enumerate(boxes) if i % 3 == cid - 1]
            for _ in range(count):
                x, y, w, h = own[rng.integers(len(own))]
                jx, jy = rng.normal(0.0, 0.15 * w), rng.normal(0.0, 0.15 * h)
                scale = rng.uniform(0.7, 1.3, 2)
                records.append({"image_id": img, "category_id": cid,
                                "bbox": [round(x + jx, 2), round(y + jy, 2),
                                         round(w * scale[0], 2), round(h * scale[1], 2)],
                                "score": round(float(rng.uniform(0.05, 1.0)), 2)})
    ann = write_dataset(root, truths, image_size=(256, 256), categories=(1, 2, 3))
    return write_detections(root, records), ann


def run(argv: list[str]) -> str:
    buf = StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def eval_outputs(root: Path) -> dict[str, str]:
    dets, ann = map(str, crowded_files(root))
    out = {}
    for name, argv in EVAL_CASES.items():
        out[f"{name}-text"] = run(["eval", dets, ann, *argv])
        out[f"{name}-json"] = run(["eval", dets, ann, *argv, "--json"])
    return out


def written(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in `out_dir`, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def augment_outputs(root: Path) -> dict[str, dict[str, str]]:
    """What each photometric run writes."""
    images = root / "images"
    images.mkdir()
    ann = write_dataset(images, [[[4.0, 3.0, 20.0, 15.0]], [[10.0, 1.0, 9.0, 30.0]]],
                        image_size=(40, 36), with_images=True)
    out = {}
    for name, argv in AUGMENT_CASES.items():
        out_dir = root / name
        run(["augment", str(ann), str(images), "--op", "photometric", "--seed", "5",
             "--out-dir", str(out_dir), *argv])
        out[name] = written(out_dir)
    return out


def outputs(root: Path) -> dict:
    return {**eval_outputs(root), **augment_outputs(root)}


def op_outputs(root: Path) -> dict[str, dict[str, str]]:
    """What mosaic, mixup, cutmix and blur write at seeds 5 and 6, from four
    40x36 images of two or three boxes each, over two classes; some boxes
    touch an image edge."""
    images = root / "images"
    images.mkdir()
    ann = write_dataset(images, [[[4.0, 3.0, 20.0, 15.0], [30.0, 20.0, 10.0, 16.0]],
                                 [[10.0, 1.0, 9.0, 30.0], [0.0, 0.0, 12.5, 7.5]],
                                 [[21.0, 5.0, 18.0, 18.0], [2.0, 24.0, 35.0, 12.0],
                                  [16.0, 14.0, 3.0, 4.0]],
                                 [[7.5, 9.0, 25.0, 20.0], [33.0, 2.0, 7.0, 34.0]]],
                        image_size=(40, 36), with_images=True, categories=(1, 2))
    out = {}
    for op, argv in OPS.items():
        for seed in ("5", "6"):
            out_dir = root / f"{op}-{seed}"
            run(["augment", str(ann), str(images), "--op", op, "--seed", seed,
                 "--out-dir", str(out_dir), *argv])
            out[f"{op}-seed{seed}"] = written(out_dir)
    return out


def error_lines(root: Path) -> dict[str, list]:
    """Exit code and first `error:` line of each bad input."""
    write_dataset(root, [[[4.0, 3.0, 20.0, 15.0]]], image_size=(40, 36), with_images=True)
    write_detections(root, [{"image_id": 1, "category_id": 1,
                             "bbox": [4.0, 3.0, 20.0, 15.0], "score": 0.9}])
    out = {}
    for name, argv in ERROR_CASES.items():
        err = StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            code = main([a.format(root=root) for a in argv])
        out[f"error-{name}"] = [code, next(line for line in err.getvalue().splitlines()
                                           if line.startswith("error:"))]
    return out


def more_outputs(root: Path) -> dict:
    (root / "ops").mkdir()
    (root / "errors").mkdir()
    schedules = {f"schedule-{name}": run(["schedule", *argv])
                 for name, argv in SCHEDULE_CASES.items()}
    return {**op_outputs(root / "ops"), **schedules, **error_lines(root / "errors")}


def test_eval_and_photometric_outputs_pinned(tmp_path):
    assert_pinned(GOLDEN_PATH, "outputs", outputs(tmp_path))


def test_augment_schedule_and_error_outputs_pinned(tmp_path):
    assert_pinned(MORE_GOLDEN_PATH, "outputs", more_outputs(tmp_path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_pinned(GOLDEN_PATH, "outputs", outputs(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        write_pinned(MORE_GOLDEN_PATH, "outputs", more_outputs(Path(tmp)))
