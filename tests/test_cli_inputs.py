"""Bad flag values at the CLI: exit 0 or 1, at most one `error:` line, no
traceback or warning, and no NaN or infinity in a successful output.

`cli.main` runs in-process on small seeded sets. Integer flags draw from
negatives, 0 and huge integers (argparse itself rejects "nan" for them, with
exit 2 and a usage line); float flags also draw NaN, ±inf and 1e308. Counts
that set a run's length (`--iters`, the GA sizes and `--steps`) draw only
small or invalid values, since a huge valid count is a long run, not bad
input; so do `augment`'s `--out-size` and `--radius`, whose huge valid
values allocate huge images. Choice flags draw only their choices, which
argparse enforces.
"""

import io
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_dataset, write_detections
from detbag.cli import main

HUGE_INTS = [10**300, 10**308, 10**400]
BAD_FLOATS = ["-5", "-1e308", "0", "nan", "inf", "-inf", "1e308", str(10**400)]


def _flag(valid, invalid):
    return st.none() | st.sampled_from([*valid, *invalid])


OPTIMIZE_ANCHORS_FLAGS = {
    "--k": _flag([1, 2, 3], [-5, 0, *HUGE_INTS]),
    "--resolution": _flag([1, 16, 512], [-5, 0, *HUGE_INTS]),
    "--iters": _flag([1, 3], [-5, 0]),
    "--threshold": _flag(["0.213", "0.5"], BAD_FLOATS),
    "--evolve-generations": _flag([1, 2], [-5, 0]),
    "--evolve-population": _flag([1, 3], [-5, 0]),
    "--seed": _flag([0, 3], [-1]),
}


EVAL_FLAGS = {
    "--nms": st.none() | st.sampled_from(["none", "greedy", "soft", "diou"]),
    "--nms-threshold": _flag(["0.45", "-0.5"], BAD_FLOATS),
    "--sigma": _flag(["0.5", "2"], [*BAD_FLOATS, "1e-320"]),
    "--soft-mode": st.none() | st.sampled_from(["linear", "gaussian"]),
}

SCHEDULE_FLAGS = {
    "--kind": st.sampled_from(["cosine", "step"]),
    "--steps": st.sampled_from([1, 3, -5, 0]),
    "--lr-max": _flag(["0.01", "1"], BAD_FLOATS),
    "--lr-min": _flag(["0", "0.001"], BAD_FLOATS),
    "--lr0": _flag(["0.01", "2"], BAD_FLOATS),
    "--milestones": _flag(["1,2", "2", ""], ["2,1", "-1", "1.5", "x", str(10**400)]),
    "--factor": _flag(["0.1", "0.5"], BAD_FLOATS),
}

SMALL_SIDES = [-5, -1, 0, 1, 2, 8]
AUGMENT_FLAGS = {
    "--op": st.sampled_from(["mosaic", "mixup", "cutmix", "photometric", "blur"]),
    "--seed": _flag([0, 3], [-1]),
    "--out-size": st.none() | st.sampled_from(SMALL_SIDES),
    "--radius": st.none() | st.sampled_from(SMALL_SIDES),
    **{flag: _flag(["0.1", "1"], BAD_FLOATS)
       for flag in ("--brightness", "--contrast", "--hue", "--saturation", "--noise-sigma")},
}


@pytest.fixture(scope="module")
def annotations(tmp_path_factory):
    rng = np.random.default_rng(251)
    boxes = [[[2, 2, float(rng.uniform(1, 60)), float(rng.uniform(1, 40))]
              for _ in range(6)] for _ in range(3)]
    return str(write_dataset(tmp_path_factory.mktemp("anchors"), boxes,
                             image_size=(64, 48)))


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """(detections, annotations) paths: two images, two classes, and
    overlapping detections for every suppression mode to act on."""
    root = tmp_path_factory.mktemp("eval")
    rng = np.random.default_rng(257)
    truths = [[[float(x), float(y), 12.0, 10.0] for x, y in rng.uniform(0, 40, (4, 2))]
              for _ in range(2)]
    records = [{"image_id": img, "category_id": 1 + i % 2,
                "bbox": [b[0] + float(dx), b[1] + float(dy), b[2], b[3]],
                "score": float(score)}
               for img, boxes in enumerate(truths, start=1)
               for i, b in enumerate(boxes)
               for dx, dy, score in rng.uniform([-3, -3, 0.05], [3, 3, 1.0], (3, 3))]
    return (str(write_detections(root, records)),
            str(write_dataset(root, truths, categories=(1, 2))))


@pytest.fixture(scope="module")
def augment_files(tmp_path_factory):
    """(annotations, images dir, output dir): four 12x10 PPMs with two
    labels each."""
    root = tmp_path_factory.mktemp("augment")
    boxes = [[[1, 1, 6, 5], [4, 3, 7, 6]]] * 4
    ann = write_dataset(root, boxes, image_size=(12, 10), with_images=True,
                        categories=(1, 2), rng=np.random.default_rng(263))
    return str(ann), str(root), str(root / "out")


def run_main(argv):
    """(exit code, stdout, stderr); a warning raises instead of printing."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit(code, out, err):
    assert code in (0, 1)
    if code == 0:
        assert err == ""
        assert not re.search(r"nan|inf", out, re.IGNORECASE), out
    else:
        assert re.fullmatch(r"error: [^\n]*\n", err), err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(flags=st.fixed_dictionaries(OPTIMIZE_ANCHORS_FLAGS), evolve=st.booleans(),
       json=st.booleans())
@example(flags={"--resolution": 0}, evolve=False, json=False)
@example(flags={"--resolution": -5}, evolve=False, json=False)
@example(flags={"--resolution": 10**400}, evolve=False, json=False)
@example(flags={"--resolution": 10**300}, evolve=False, json=True)
@example(flags={"--resolution": 10**300}, evolve=True, json=False)
@example(flags={"--seed": -1}, evolve=False, json=False)
def test_optimize_anchors_flags(annotations, flags, evolve, json):
    argv = ["optimize-anchors", annotations]
    argv += [f"{name}={value}" for name, value in flags.items() if value is not None]
    argv += ["--evolve"] * evolve + ["--json"] * json
    check_exit(*run_main(argv))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(flags=st.fixed_dictionaries(EVAL_FLAGS), json=st.booleans())
@example(flags={"--nms": "soft", "--soft-mode": "gaussian", "--sigma": "1e-320"}, json=False)
def test_eval_flags(eval_files, flags, json):
    argv = ["eval", *eval_files]
    argv += [f"{name}={value}" for name, value in flags.items() if value is not None]
    argv += ["--json"] * json
    check_exit(*run_main(argv))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(flags=st.fixed_dictionaries(AUGMENT_FLAGS))
@example(flags={"--op": "blur", "--radius": -1})
@example(flags={"--op": "mosaic", "--out-size": 8, "--seed": -1})
def test_augment_flags(augment_files, flags):
    annotations, images_dir, out_dir = augment_files
    argv = ["augment", annotations, images_dir, f"--out-dir={out_dir}"]
    argv += [f"{name}={value}" for name, value in flags.items() if value is not None]
    code, out, err = run_main(argv)
    # the output path is the caller's, so only the rest of the line is checked
    check_exit(code, out.replace(out_dir, ""), err)
    if code == 0:
        written = (Path(out_dir) / "annotations.json").read_text()
        assert not re.search(r"NaN|Infinity", written), written


@settings(max_examples=150, deadline=None, derandomize=True)
@given(flags=st.fixed_dictionaries(SCHEDULE_FLAGS))
@example(flags={"--kind": "step", "--milestones": "x", "--steps": 2})
def test_schedule_flags(flags):
    argv = ["schedule"]
    argv += [f"{name}={value}" for name, value in flags.items() if value is not None]
    check_exit(*run_main(argv))
