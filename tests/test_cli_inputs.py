"""Bad flag values at the CLI: exit 0 or 1, at most one `error:` line, no
traceback or warning, and no NaN or infinity in a successful output.

`cli.main` runs in-process on a small seeded set. Integer flags draw from
negatives, 0 and huge integers (argparse itself rejects "nan" for them, with
exit 2 and a usage line); float flags also draw NaN, ±inf and 1e308. Counts
that set a run's length (`--iters` and the GA sizes) draw only small or
invalid values, since a huge valid count is a long run, not bad input.
"""

import io
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_dataset
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
}


@pytest.fixture(scope="module")
def annotations(tmp_path_factory):
    rng = np.random.default_rng(251)
    boxes = [[[2, 2, float(rng.uniform(1, 60)), float(rng.uniform(1, 40))]
              for _ in range(6)] for _ in range(3)]
    return str(write_dataset(tmp_path_factory.mktemp("anchors"), boxes,
                             image_size=(64, 48)))


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
def test_optimize_anchors_flags(annotations, flags, evolve, json):
    argv = ["optimize-anchors", annotations]
    argv += [f"{name}={value}" for name, value in flags.items() if value is not None]
    argv += ["--evolve"] * evolve + ["--json"] * json
    check_exit(*run_main(argv))
