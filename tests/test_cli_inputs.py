"""Bad flag values at the CLI: exit 0 or 1, at most one `error:` line, no
traceback or warning, and no NaN or infinity in a successful output.

`cli.main` runs in-process on small seeded sets. Integer flags draw from
negatives, 0 and huge integers (argparse itself rejects "nan" for them, with
exit 2 and a usage line); float flags also draw NaN, ±inf and 1e308. Counts
that set a run's length (`--iters`, the GA sizes and `--steps`) draw only
small or invalid values, since a huge valid count is a long run, not bad
input; so do `augment`'s `--out-size` and `--radius`, whose huge valid
values allocate huge images. Choice flags draw only their choices, which
argparse enforces. Fixed cases of bad numbers in the input files follow,
then drawn mutations of valid input files, run the same way.
"""

import io
import json
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


# (file, field, subcommand, message): a JSON integer past the float range in
# each of these fields printed an OverflowError traceback
HUGE_INT_FIELDS = [
    *[("annotations", ("annotations", 0, "bbox", k), command,
       "annotation 1 has a non-finite bbox")
      for k in range(4) for command in ("eval", "optimize-anchors")],
    *[("annotations", ("images", 0, side), "optimize-anchors",
       "image 1 has non-positive or non-finite size") for side in ("width", "height")],
    *[("detections", (0, "bbox", k), "eval", "bad detection record #0: non-finite")
      for k in range(4)],
    ("detections", (0, "score"), "eval", "bad detection record #0: non-finite"),
]


@pytest.mark.parametrize("where,field,command,message", HUGE_INT_FIELDS,
                         ids=[f"{c}-{w}-{'.'.join(map(str, f))}" for w, f, c, _ in HUGE_INT_FIELDS])
def test_integer_past_the_float_range_in_a_file(tmp_path, where, field, command, message):
    ann_path = write_dataset(tmp_path, [[[2, 3, 20, 10]]], image_size=(64, 48))
    files = {"annotations": json.loads(ann_path.read_text()),
             "detections": [{"image_id": 1, "category_id": 1, "bbox": [2, 3, 20, 10],
                             "score": 0.9}]}
    record = files[where]
    for key in field[:-1]:
        record = record[key]
    record[field[-1]] = 10**400
    ann_path.write_text(json.dumps(files["annotations"]))
    dets_path = write_detections(tmp_path, files["detections"])
    argv = (["eval", str(dets_path), str(ann_path)] if command == "eval"
            else ["optimize-anchors", str(ann_path), "--k", "1"])
    code, out, err = run_main(argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"error: {re.escape(message)}[^\n]*\n", err), err


# bytes that `json` cannot read: cut short, not UTF-8, nested past the
# interpreter's recursion limit
UNREADABLE_JSON = {"truncated": b'[{"id": 1', "not-utf-8": b"\xff\xfe[]",
                   "too-deep": b"[" * 100_000}


@pytest.mark.parametrize("command,where", [
    ("eval", "detections"), ("eval", "annotations"),
    ("optimize-anchors", "annotations"), ("augment", "annotations")])
def test_unreadable_json_file_named(tmp_path, command, where):
    """Each bad file exits 1 with one `error:` line naming it; a detections
    file that holds an object rather than an array is named too."""
    ann = write_dataset(tmp_path, [[[2, 3, 20, 10]]])
    dets = write_detections(tmp_path, [])
    argv = {"eval": ["eval", str(dets), str(ann)],
            "optimize-anchors": ["optimize-anchors", str(ann), "--k", "1"],
            "augment": ["augment", str(ann), str(tmp_path), "--op", "blur",
                        f"--out-dir={tmp_path / 'out'}"]}[command]
    bad = dets if where == "detections" else ann
    payloads = dict(UNREADABLE_JSON, **({"object": b"{}"} if where == "detections" else {}))
    for name, payload in payloads.items():
        bad.write_bytes(payload)
        code, out, err = run_main(argv)
        assert (code, out) == (1, ""), name
        assert re.fullmatch(rf"error: {re.escape(str(bad))}: [^\n]*\n", err), (name, err)


# Bad values in the input files. Each example applies one or two mutations
# to valid files: a field (a bbox entry included) takes one of the 18 JSON
# values below, a key is deleted, or a record is duplicated; for `augment`,
# one PPM header may be replaced by a bad or odd one.
FILE_VALUES = [None, "x", [], {}, True, -1, 0, 1.5, 1e308, -1e308, float("nan"),
               float("inf"), 10**400, 10**30, "1", [1, 2, 3, 4], -0.0, 1e-320]
PPM_HEADERS = [b"P6\n12 10\n255\n", b"P6 # comment\n12 10 255\n", b"P5\n12 10\n255\n",
               b"P6\n-12 10\n255\n", b"P6\n12 10\n256\n", b"P6\n12 10\n0\n",
               b"P6\n11 10\n255\n", b"P6\n1e1 10\n255\n", b"P6\n" + b"9" * 400 + b" 10\n255\n",
               "P6\n١٢ 10\n255\n".encode(), b"P6\n12", b""]
VALID_BOXES = [[[1, 1, 6, 5], [4, 3, 7, 6]]] * 4
VALID_DETECTIONS = [{"image_id": img, "category_id": 1 + i % 2,
                     "bbox": [b[0] + 0.5, b[1], b[2], b[3] - 0.5], "score": 0.9 - 0.1 * i}
                    for img in range(1, 5) for i, b in enumerate(VALID_BOXES[0])]


def _paths(value, prefix=()):
    """Every key and index path into a JSON value, outermost first."""
    out = []
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


@pytest.fixture(scope="module")
def file_root(tmp_path_factory):
    """A directory holding the valid annotations, detections and PPMs."""
    root = tmp_path_factory.mktemp("files")
    write_dataset(root, VALID_BOXES, image_size=(12, 10), with_images=True,
                  categories=(1, 2), rng=np.random.default_rng(269))
    write_detections(root, VALID_DETECTIONS)
    return root


VALID_ANNOTATIONS = {
    "images": [{"id": i, "file_name": f"img_{i:04d}.ppm", "width": 12, "height": 10}
               for i in range(1, 5)],
    "annotations": [{"id": 2 * i + k + 1, "image_id": i + 1, "bbox": box,
                     "category_id": 1 + k} for i in range(4)
                    for k, box in enumerate(VALID_BOXES[0])],
    "categories": [{"id": 1, "name": "class1"}, {"id": 2, "name": "class2"}]}
MUTATIONS = [(where, path, op) for where, payload in (("annotations", VALID_ANNOTATIONS),
                                                      ("detections", VALID_DETECTIONS))
             for path in _paths(payload)
             for op in [*range(len(FILE_VALUES)), "delete", "duplicate"]
             if op != "duplicate" or (len(path) == 2 - (where == "detections")
                                      and isinstance(path[-1], int))]


def _mutated(file_root, tmp_path, mutations):
    """Write mutated copies of the valid files to tmp_path; the PPMs stay in
    file_root. Returns (detections path, annotations path)."""
    files = {"annotations": json.loads(json.dumps(VALID_ANNOTATIONS)),
             "detections": json.loads(json.dumps(VALID_DETECTIONS))}
    for where, path, op in mutations:
        parent = files[where]
        try:
            for key in path[:-1]:
                parent = parent[key]
            if op == "delete":
                del parent[path[-1]]
            elif op == "duplicate":
                parent.append(json.loads(json.dumps(parent[path[-1]])))
            else:
                parent[path[-1]] = FILE_VALUES[op]
        except (KeyError, IndexError, TypeError):  # an earlier mutation moved the path
            pass
    ann = tmp_path / "annotations.json"
    ann.write_text(json.dumps(files["annotations"]))
    return write_detections(tmp_path, files["detections"]), ann


FILE_MUTATIONS = st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=FILE_MUTATIONS, nms=st.sampled_from(["none", "greedy", "soft", "diou"]))
@example(mutations=[("detections", (0, "bbox", 3), FILE_VALUES.index(10**400))], nms="soft")
@example(mutations=[("annotations", ("annotations", 0, "bbox"), "delete")], nms="none")
def test_eval_file_mutations(file_root, tmp_path_factory, mutations, nms):
    dets, ann = _mutated(file_root, tmp_path_factory.mktemp("eval"), mutations)
    check_exit(*run_main(["eval", str(dets), str(ann), "--nms", nms, "--json"]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutations=FILE_MUTATIONS, evolve=st.booleans())
@example(mutations=[("annotations", ("images", 0, "width"), FILE_VALUES.index(1e-320))],
         evolve=False)
def test_optimize_anchors_file_mutations(file_root, tmp_path_factory, mutations, evolve):
    _, ann = _mutated(file_root, tmp_path_factory.mktemp("anchors"), mutations)
    argv = ["optimize-anchors", str(ann), "--k", "2", "--json"]
    argv += ["--evolve", "--evolve-generations", "2", "--evolve-population", "3"] * evolve
    check_exit(*run_main(argv))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutations=st.lists(st.sampled_from(MUTATIONS), max_size=2),
       header=st.sampled_from(PPM_HEADERS), image=st.integers(1, 4),
       op=st.sampled_from(["mosaic", "mixup", "cutmix", "photometric", "blur"]))
@example(mutations=[], header=PPM_HEADERS[-2], image=2, op="mosaic")
def test_augment_file_mutations(file_root, tmp_path_factory, mutations, header, image, op):
    root = tmp_path_factory.mktemp("augment")
    _, ann = _mutated(file_root, root, mutations)
    for i in range(1, 5):
        raw = (file_root / f"img_{i:04d}.ppm").read_bytes()
        if i == image:  # in place of the valid header, PPM_HEADERS[0]
            raw = header + raw[len(PPM_HEADERS[0]):]
        (root / f"img_{i:04d}.ppm").write_bytes(raw)
    out_dir = root / "out"
    code, out, err = run_main(["augment", str(ann), str(root), "--op", op,
                               f"--out-dir={out_dir}"])
    check_exit(code, out.replace(str(out_dir), ""), err)
    if code == 0:
        written = (out_dir / "annotations.json").read_text()
        assert not re.search(r"NaN|Infinity", written), written
