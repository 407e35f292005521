"""Tier-1 pins the benchmark workloads' output and their Python work: one
untimed pass of each workload at seed 0, checked against its oracles, whose
digest must hash to the value in `workload_digests.json`, and whose calls
into `detbag` must be the counts in `workload_calls.json`.

The digests hold float reprs, which depend on libm and numpy's own math, so
the file records the numpy version and platform it was taken on; on another
one a differing digest skips, naming both. The call counts depend on the
Python version as well (3.12 inlines list comprehensions, PEP 709), so their
file records it too. A change that moves either on purpose rewrites its file
with `python tests/test_workload_digests.py digests|calls`.
"""

import cProfile
import hashlib
import pstats
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import detbag  # noqa: E402
from conftest import assert_pinned, write_pinned  # noqa: E402
from detbench.spans import Tracer  # noqa: E402
from detbench.workloads import WORKLOADS  # noqa: E402

DIGESTS_PATH = Path(__file__).with_name("workload_digests.json")
CALLS_PATH = Path(__file__).with_name("workload_calls.json")
DETBAG_DIR = Path(detbag.__file__).resolve().parent
SEED = 0


def profiled_pass(wl, workdir: Path) -> tuple[str, dict]:
    """One checked pass, run as `benchmarks/run.py` runs a pass, with the
    tracer off and no clock: the sha256 of its digest, and the calls that
    its prelude, items and finalize step make into `detbag`."""
    state = wl.setup(SEED, workdir)
    ctx = wl.begin(state, Tracer())
    profile = cProfile.Profile()
    profile.enable()
    try:
        wl.prelude(ctx)
        for i in range(wl.items_per_pass):
            wl.item(ctx, i)
            wl.settle(ctx, i)
        wl.finalize(ctx)
    finally:
        profile.disable()
    wl.check(ctx)
    return hashlib.sha256(wl.digest(ctx).encode()).hexdigest(), detbag_calls(profile)


def detbag_calls(profile: cProfile.Profile) -> dict:
    """Calls to functions defined in `detbag`, keyed `module.function` and
    summed over line numbers, and their total."""
    counts = Counter()
    for (filename, _, function), (_, calls, *_) in pstats.Stats(profile).stats.items():
        path = Path(filename).resolve()
        if path.parent == DETBAG_DIR:
            counts[f"{path.stem}.{function}"] += calls
    return {"total": sum(counts.values()), "by_function": dict(sorted(counts.items()))}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """The profiled pass of a workload, run once for both of its pins."""
    done = {}

    def get(name):
        if name not in done:
            done[name] = profiled_pass(WORKLOADS[name], tmp_path_factory.mktemp(name))
        return done[name]
    return get


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_pass_digest(name, passes):
    assert_pinned(DIGESTS_PATH, "digests", {name: passes(name)[0]})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_pass_calls(name, passes):
    assert_pinned(CALLS_PATH, "calls", {name: passes(name)[1]}, python=True)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] not in (["digests"], ["calls"]):
        sys.exit("usage: python tests/test_workload_digests.py digests|calls")
    out = {}
    for name in sorted(WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = profiled_pass(WORKLOADS[name], Path(tmp))
    if sys.argv[1] == "digests":
        write_pinned(DIGESTS_PATH, "digests", {n: d for n, (d, _) in out.items()}, seed=SEED)
    else:
        write_pinned(CALLS_PATH, "calls", {n: c for n, (_, c) in out.items()},
                     python=True, seed=SEED)
