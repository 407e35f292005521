"""Detection-aware data augmentation.

Images are (H, W, 3) float arrays with intensities in [0, 1]; every op
clamps back into that range and keeps surviving boxes inside the canvas.
Randomness always flows through an explicit numpy Generator, so outputs are
bit-reproducible given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from detbag.geometry import Box, box_area, corners

# boxes whose visible area falls below this fraction of their transformed
# area are dropped rather than kept as sliver labels
MIN_AREA_FRAC = 0.1


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=float)
    if img.ndim != 3 or img.shape[2] != 3 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image must be (H, W, 3) with positive dims: {img.shape}")
    return img


@dataclass
class Sample:
    """An image plus labeled boxes; weights cover mixed-label augmentation."""

    image: np.ndarray
    labels: list[tuple[Box, int]] = field(default_factory=list)
    weights: list[float] | None = None

    def __post_init__(self):
        self.image = _check_image(self.image)
        if self.weights is None:
            self.weights = [1.0] * len(self.labels)
        if len(self.weights) != len(self.labels):
            raise ValueError("weights must match labels one-to-one")
        h, w = self.image.shape[:2]
        for box, _ in self.labels:
            if box.x_min < 0 or box.y_min < 0 or box.x_max > w or box.y_max > h:
                raise ValueError(f"label box {box} outside {w}x{h} image")
        for wt in self.weights:
            if not 0.0 < wt <= 1.0:
                raise ValueError(f"label weight outside (0, 1]: {wt}")

    @property
    def width(self) -> int:
        return self.image.shape[1]

    @property
    def height(self) -> int:
        return self.image.shape[0]


def _resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape[:2]
    rows = np.minimum((np.arange(out_h) + 0.5) * h / out_h, h - 1).astype(int)
    cols = np.minimum((np.arange(out_w) + 0.5) * w / out_w, w - 1).astype(int)
    return img.take(rows, 0).take(cols, 1)


def _place(s: Sample, scale, shift, canvas_w, canvas_h):
    """s's labels moved by x * scale + shift per axis, clipped to the
    canvas; a box is dropped when it misses the closed canvas or its
    clipped area falls below MIN_AREA_FRAC of its moved area. A scale of
    -1 mirrors an axis."""
    c = corners(b for b, _ in s.labels) * (scale * 2) + (shift * 2)
    moved = np.concatenate([np.minimum(c[:, :2], c[:, 2:]),
                            np.maximum(c[:, :2], c[:, 2:])], axis=1)
    clipped = np.minimum(np.maximum(moved, 0.0), (canvas_w, canvas_h) * 2)
    keep = ((box_area(clipped) >= MIN_AREA_FRAC * box_area(moved))
            & (moved[:, 2:] >= 0.0).all(1)
            & (moved[:, :2] <= (canvas_w, canvas_h)).all(1)).tolist()
    labels = [(Box(*xy), cid) for xy, (_, cid), k in
              zip(clipped.tolist(), s.labels, keep) if k]
    return labels, [wt for wt, k in zip(s.weights, keep) if k]


def mosaic(samples: list[Sample], out_w: int, out_h: int,
           rng: np.random.Generator) -> Sample:
    """Compose exactly 4 samples onto one canvas split at a random point.

    The split point is uniform over the central half of the canvas; each
    source is rescaled to fill its quadrant (top-left, top-right,
    bottom-left, bottom-right in input order) and its boxes follow the same
    scale and translation.
    """
    if len(samples) != 4:
        raise ValueError(f"mosaic needs exactly 4 samples, got {len(samples)}")
    if out_w < 2 or out_h < 2:
        raise ValueError(f"canvas too small: {out_w}x{out_h}")
    split_x = int(round(rng.uniform(0.25 * out_w, 0.75 * out_w)))
    split_y = int(round(rng.uniform(0.25 * out_h, 0.75 * out_h)))
    split_x = min(max(split_x, 1), out_w - 1)
    split_y = min(max(split_y, 1), out_h - 1)

    quadrants = (
        (0, 0, split_x, split_y),
        (split_x, 0, out_w, split_y),
        (0, split_y, split_x, out_h),
        (split_x, split_y, out_w, out_h),
    )
    canvas = np.zeros((out_h, out_w, 3))
    labels: list[tuple[Box, int]] = []
    weights: list[float] = []
    for sample, (qx1, qy1, qx2, qy2) in zip(samples, quadrants):
        qw, qh = qx2 - qx1, qy2 - qy1
        canvas[qy1:qy2, qx1:qx2] = _resize_nearest(sample.image, qh, qw)
        kept, kept_w = _place(sample, (qw / sample.width, qh / sample.height),
                              (qx1, qy1), out_w, out_h)
        labels.extend(kept)
        weights.extend(kept_w)
    return Sample(canvas, labels, weights)


def _merge_labels(a: Sample, b: Sample, weight_a: float) -> tuple[list, list]:
    labels, weights = [], []
    for s, lam in ((a, weight_a), (b, 1.0 - weight_a)):
        for label, wt in zip(s.labels, s.weights):
            if wt * lam > 0.0:
                labels.append(label)
                weights.append(wt * lam)
    return labels, weights


def cutmix_rect(a: Sample, b: Sample, rect: tuple[int, int, int, int]) -> Sample:
    """Paste b's pixels into a over the given (x1, y1, x2, y2) rectangle and
    mix the labels by the surviving area fraction of a."""
    if a.image.shape != b.image.shape:
        raise ValueError(f"dimension mismatch: {a.image.shape} vs {b.image.shape}")
    x1, y1, x2, y2 = rect
    if not (0 <= x1 <= x2 <= a.width and 0 <= y1 <= y2 <= a.height):
        raise ValueError(f"rectangle {rect} outside {a.width}x{a.height} image")
    img = a.image.copy()
    img[y1:y2, x1:x2] = b.image[y1:y2, x1:x2]
    lam = 1.0 - ((x2 - x1) * (y2 - y1)) / (a.width * a.height)
    labels, weights = _merge_labels(a, b, lam)
    return Sample(img, labels, weights)


def cutmix(a: Sample, b: Sample, rng: np.random.Generator) -> Sample:
    """Classification-mode CutMix: a random rectangle of b replaces the same
    region of a; label weights follow the visible area split.

    The area fraction cut from b is 1 - lambda with lambda uniform in
    (0, 1); side lengths are proportional to sqrt(1 - lambda) around a
    uniform center, clipped to the image.
    """
    lam = rng.uniform(0.0, 1.0)
    ratio = np.sqrt(1.0 - lam)
    cut_w, cut_h = int(round(a.width * ratio)), int(round(a.height * ratio))
    cx = int(rng.integers(0, a.width))
    cy = int(rng.integers(0, a.height))
    x1 = max(cx - cut_w // 2, 0)
    y1 = max(cy - cut_h // 2, 0)
    x2 = min(x1 + cut_w, a.width)
    y2 = min(y1 + cut_h, a.height)
    return cutmix_rect(a, b, (x1, y1, x2, y2))


def mixup(a: Sample, b: Sample, lam: float) -> Sample:
    """Blend two samples: pixels lam*a + (1-lam)*b, labels united with
    weights scaled by lam and 1-lam (zero-weight labels dropped)."""
    if a.image.shape != b.image.shape:
        raise ValueError(f"dimension mismatch: {a.image.shape} vs {b.image.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda outside [0, 1]: {lam}")
    img = lam * a.image + (1.0 - lam) * b.image
    labels, weights = _merge_labels(a, b, lam)
    return Sample(img, labels, weights)


# the channel that v, p and x (q in odd sectors, t in even ones) take in
# each sector of the hue wheel; sector 6 is h == 1.0, where f == 0, so it
# takes sector 0's channels
_SECTOR_CHANNELS = np.array([[0, 1, 1, 2, 2, 0, 0], [2, 2, 0, 0, 1, 1, 2],
                             [1, 0, 2, 1, 0, 2, 1]])


def _rgb_to_hsv(r: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Hue in sixths of a turn, saturation and value planes of RGB planes
    clipped to [0, 1]."""
    v = np.maximum(np.maximum(r, g), b)
    delta = v - np.minimum(np.minimum(r, g), b)
    sat = np.divide(delta, v, out=np.zeros_like(v), where=v > 0)
    chroma = delta > 0
    safe = np.where(chroma, delta, 1.0)
    hr = (g - b) / safe
    hr += 6.0 * (hr < 0.0)  # == hr % 6.0 on [-1, 1], -0.0 included
    hue = np.where(v == g, (b - r) / safe + 2.0, (r - g) / safe + 4.0)
    hue = np.where(v == r, hr, hue)
    np.copyto(hue, 0.0, where=~chroma)
    return hue, sat, v


def _hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (H, W, 3) image of hue (in turns, within [0, 1]), saturation and
    value planes."""
    k = np.floor(h * 6.0)
    f = h * 6.0 - k
    k = k.astype(np.intp)
    x = v * (1.0 - s * np.where(k & 1, f, 1.0 - f))  # q if k is odd, else t
    p = v * (1.0 - s)
    out = np.empty(v.shape + (3,))
    at = np.arange(0, out.size, 3).reshape(v.shape)
    for plane, channel in zip((v, p, x), _SECTOR_CHANNELS):
        out.reshape(-1)[channel[k] + at] = plane
    return out


# pixels in one row block of `photometric`, so that a block's temporaries
# stay in cache at any image width
_BLOCK_PIXELS = 8192


def photometric(s: Sample, brightness: float = 0.0, contrast: float = 1.0,
                hue: float = 0.0, saturation: float = 1.0,
                noise_sigma: float = 0.0,
                rng: np.random.Generator | None = None) -> Sample:
    """Photometric jitter; labels pass through untouched.

    brightness is additive, contrast scales about the image mean, hue
    rotates the HSV wheel (in turns), saturation scales the HSV S channel,
    and noise adds clamped gaussian noise. Every stage that sits at its
    identity value is skipped, so all-identity parameters return a new
    array, equal to the image bit for bit. Raises ValueError, before any
    pixel work, naming a parameter that is not finite, a negative
    noise_sigma, or noise without an rng.

    The stages run in place on one output array, a block of rows at a time
    (brightness in a pass of its own, as contrast needs the mean of its
    result). Each stage is elementwise and the noise is drawn in C order,
    so the bytes and the rng stream are those of whole-image stages.
    """
    for name, value in (("brightness", brightness), ("contrast", contrast),
                        ("hue", hue), ("saturation", saturation),
                        ("noise_sigma", noise_sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: {value}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0: {noise_sigma}")
    if noise_sigma != 0.0 and rng is None:
        raise ValueError("noise_sigma > 0 needs an rng")
    img = s.image
    jitter_hsv = hue != 0.0 or saturation != 1.0
    # in the input's memory order, so that contrast's mean sums as it would
    # over a whole-image result
    out = np.empty_like(img)
    rows = max(1, _BLOCK_PIXELS // img.shape[1])
    blocks = [slice(r, r + rows) for r in range(0, img.shape[0], rows)]
    if brightness != 0.0:
        for b in blocks:
            np.clip(np.add(img[b], brightness, out=out[b]), 0.0, 1.0, out=out[b])
        img = out
    if contrast != 1.0:
        mean = img.mean()
    for b in blocks:
        blk = out[b]
        if img is not out:
            np.copyto(blk, img[b])
        if contrast != 1.0:
            # == mean + contrast * (blk - mean): + and * commute exactly
            blk -= mean
            blk *= contrast
            blk += mean
            np.clip(blk, 0.0, 1.0, out=blk)
        if jitter_hsv:
            h, sat, v = _rgb_to_hsv(*np.clip(blk.transpose(2, 0, 1), 0.0, 1.0,
                                             out=np.empty((3,) + blk.shape[:2])))
            h = h / 6.0 + hue
            h -= np.floor(h)  # == h % 1.0, but 1.0 may stay: it is sector 6
            np.clip(_hsv_to_rgb(h, np.clip(sat * saturation, 0.0, 1.0), v), 0.0, 1.0,
                    out=blk)
        if noise_sigma != 0.0:
            blk += rng.normal(0.0, noise_sigma, blk.shape)
            np.clip(blk, 0.0, 1.0, out=blk)
    return Sample(out, list(s.labels), list(s.weights))


def geometric(s: Sample, op: str, k: float | None = None,
              region: tuple[int, int, int, int] | None = None) -> Sample:
    """Geometric transforms keeping pixels and boxes consistent.

    op is one of 'hflip', 'scale' (factor k > 0), or 'crop' (pixel region
    (x1, y1, x2, y2) inside the image). Boxes follow the pixels through
    the same clip and sliver rule as mosaic, so a crop drops the boxes it
    cuts down to slivers.
    """
    if op == "hflip":
        img = s.image[:, ::-1].copy()
        scale, shift = (-1, 1), (s.width, 0)
    elif op == "scale":
        if k is None or k <= 0:
            raise ValueError(f"scale needs k > 0: {k}")
        out_h = max(int(round(s.height * k)), 1)
        out_w = max(int(round(s.width * k)), 1)
        img = _resize_nearest(s.image, out_h, out_w)
        scale, shift = (k, k), (0, 0)
    elif op == "crop":
        if region is None:
            raise ValueError("crop needs a region")
        x1, y1, x2, y2 = (int(v) for v in region)
        if not (0 <= x1 < x2 <= s.width and 0 <= y1 < y2 <= s.height):
            raise ValueError(f"crop region {region} invalid for "
                             f"{s.width}x{s.height} image")
        img = s.image[y1:y2, x1:x2].copy()
        scale, shift = (1, 1), (-x1, -y1)
    else:
        raise ValueError(f"unknown geometric op: {op!r}")
    return Sample(img, *_place(s, scale, shift, img.shape[1], img.shape[0]))


def _box_mean_1d(x: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Mean over a (2*radius+1) window with edge clamping, via cumsum."""
    k = 2 * radius + 1
    pad = [(radius, radius) if a == axis else (0, 0) for a in range(x.ndim)]
    padded = np.pad(x, pad, mode="edge")
    csum = np.cumsum(padded, axis=axis)
    zero = np.zeros(csum.shape[:axis] + (1,) + csum.shape[axis + 1:])
    csum = np.concatenate([zero, csum], axis=axis)
    lead = (slice(None),) * axis  # the window sums slice `axis` only
    return (csum[(*lead, slice(k, None))] - csum[(*lead, slice(None, -k))]) / k


def blur(s: Sample, radius: int) -> Sample:
    """Box blur of side 2*radius + 1 per channel; labels unchanged."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0: {radius}")
    if radius == 0:
        return Sample(s.image.copy(), list(s.labels), list(s.weights))
    img = _box_mean_1d(_box_mean_1d(s.image, radius, axis=0), radius, axis=1)
    return Sample(np.clip(img, 0.0, 1.0), list(s.labels), list(s.weights))
