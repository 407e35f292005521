"""Host-speed calibration for timings taken on a shared machine.

On a shared 2-vCPU host (Linux 6.18, 2.1 GHz vCPUs) one fixed 22 ms Python
loop took 21-63 ms over three minutes, and whole 20 s stretches ran 30-100 %
slow, so raw per-run medians spread by 10-50 % between runs of one seed. A
fixed calibration kernel, timed right before and right after each timed
segment, slows with the host, and scaling the segment by REFERENCE_S over
the mean of the two calibrations cancels most of that drift.

The host does not slow all code alike: interpreted Python and numpy passes
over arrays larger than the caches drift apart. So there are two kernels,
both timed at every segment boundary, and each workload names the one that
matches where a segment's time goes. Between 20 s windows of one seed, the
spread of the median item latency fell from 23 % to 2 % (`val-decode`,
Python kernel) and from 20 % to 7 % (`train-loader`, numpy kernel).

A scaled time reads as the time on a host that runs each kernel in its
REFERENCE_S: round figures near the kernels' times on the host above, so
scaled times are near raw ones but not equal.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = {"python": 0.002, "numpy": 0.003}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def _python_kernel(_pixels) -> float:
    """Object creation, attribute reads and scalar math: what per-box
    detbag code does."""
    acc = 0.0
    for i in range(3500):
        p = _Point(i * 0.5, 1.0 / (i + 1))
        acc += math.exp(-p.y) * p.x + max(p.x, p.y)
    return acc


def _numpy_kernel(pixels) -> float:
    """Elementwise passes over a 2.4 MB image: what pixel code does."""
    for _ in range(2):
        pixels = np.clip(pixels * 1.1 + 0.01, 0.0, 1.0)
    return float(pixels[0, 0, 0])


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


class Calibrator:
    """Times the fixed kernels on demand."""

    def __init__(self):
        self._pixels = np.random.default_rng(0).random((320, 320, 3))

    def sample(self) -> dict[str, float]:
        """Seconds each kernel takes now."""
        out = {}
        for kind, kernel in KERNELS.items():
            start = time.perf_counter()
            kernel(self._pixels)
            out[kind] = time.perf_counter() - start
        return out


def scaled(seconds: float, before: dict, after: dict, kind: str) -> float:
    """A segment's time at reference host speed, from the calibrations
    taken just before and just after it with the `kind` kernel."""
    return seconds * 2.0 * REFERENCE_S[kind] / (before[kind] + after[kind])
