"""Tier-1 pins the benchmark workloads' output: one untimed pass of each
workload at seed 0, checked against its oracles, whose digest must hash to
the value in `workload_digests.json`.

The digests hold float reprs, which depend on libm and numpy's own math, so
the file records the numpy version and platform it was taken on; on another
one a differing digest skips, naming both. A change that moves a digest on
purpose rewrites the file with `python tests/test_workload_digests.py`.
"""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from conftest import assert_pinned, write_pinned  # noqa: E402
from detbench.spans import Tracer  # noqa: E402
from detbench.workloads import WORKLOADS  # noqa: E402

DIGESTS_PATH = Path(__file__).with_name("workload_digests.json")
SEED = 0


def pass_digest(wl, workdir: Path) -> str:
    """sha256 of the digest of one checked pass, run as `benchmarks/run.py`
    runs a pass, with the tracer off and no clock."""
    state = wl.setup(SEED, workdir)
    ctx = wl.begin(state, Tracer())
    wl.prelude(ctx)
    for i in range(wl.items_per_pass):
        wl.item(ctx, i)
        wl.settle(ctx, i)
    wl.finalize(ctx)
    wl.check(ctx)
    return hashlib.sha256(wl.digest(ctx).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_pass_digest(name, tmp_path):
    assert_pinned(DIGESTS_PATH, "digests", {name: pass_digest(WORKLOADS[name], tmp_path)})


if __name__ == "__main__":
    import tempfile

    digests = {}
    for name in sorted(WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = pass_digest(WORKLOADS[name], Path(tmp))
    write_pinned(DIGESTS_PATH, "digests", digests, seed=SEED)
