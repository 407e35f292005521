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
    return img[rows][:, cols]


def _place(s: Sample, scale, shift, canvas_w, canvas_h):
    """s's labels moved by x * scale + shift per axis, clipped to the
    canvas; a box is dropped when its clipped area falls below
    MIN_AREA_FRAC of its moved area. A scale of -1 mirrors an axis."""
    c = corners(b for b, _ in s.labels) * (scale * 2) + (shift * 2)
    moved = np.concatenate([np.minimum(c[:, :2], c[:, 2:]),
                            np.maximum(c[:, :2], c[:, 2:])], axis=1)
    clipped = np.minimum(np.maximum(moved, 0.0), (canvas_w, canvas_h) * 2)
    keep = (box_area(clipped) >= MIN_AREA_FRAC * box_area(moved)).tolist()
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
    if a.image.shape != b.image.shape:
        raise ValueError(f"dimension mismatch: {a.image.shape} vs {b.image.shape}")
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


def _rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    delta = maxc - minc
    sat = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    hue = np.zeros_like(maxc)
    safe = np.where(delta > 0, delta, 1.0)
    sel_r = (maxc == r) & (delta > 0)
    sel_g = (maxc == g) & ~sel_r & (delta > 0)
    sel_b = (delta > 0) & ~sel_r & ~sel_g
    hue = np.where(sel_r, ((g - b) / safe) % 6.0, hue)
    hue = np.where(sel_g, (b - r) / safe + 2.0, hue)
    hue = np.where(sel_b, (r - g) / safe + 4.0, hue)
    return np.stack([hue / 6.0, sat, maxc], axis=-1)


def _hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv[..., 0] % 1.0, hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(int) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def photometric(s: Sample, brightness: float = 0.0, contrast: float = 1.0,
                hue: float = 0.0, saturation: float = 1.0,
                noise_sigma: float = 0.0,
                rng: np.random.Generator | None = None) -> Sample:
    """Photometric jitter; labels pass through untouched.

    brightness is additive, contrast scales about the image mean, hue
    rotates the HSV wheel (in turns), saturation scales the HSV S channel,
    and noise adds clamped gaussian noise. Every stage that sits at its
    identity value is skipped, so all-identity parameters return the image
    bit-exact. Raises ValueError naming a parameter that is not finite.
    """
    for name, value in (("brightness", brightness), ("contrast", contrast),
                        ("hue", hue), ("saturation", saturation),
                        ("noise_sigma", noise_sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: {value}")
    img = s.image
    if brightness != 0.0:
        img = np.clip(img + brightness, 0.0, 1.0)
    if contrast != 1.0:
        mean = img.mean()
        img = np.clip(mean + contrast * (img - mean), 0.0, 1.0)
    if hue != 0.0 or saturation != 1.0:
        hsv = _rgb_to_hsv(np.clip(img, 0.0, 1.0))
        hsv[..., 0] = (hsv[..., 0] + hue) % 1.0
        hsv[..., 1] = np.clip(hsv[..., 1] * saturation, 0.0, 1.0)
        img = np.clip(_hsv_to_rgb(hsv), 0.0, 1.0)
    if noise_sigma != 0.0:
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0: {noise_sigma}")
        if rng is None:
            raise ValueError("noise_sigma > 0 needs an rng")
        img = np.clip(img + rng.normal(0.0, noise_sigma, img.shape), 0.0, 1.0)
    return Sample(img, list(s.labels), list(s.weights))


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
    pad = [(0, 0)] * x.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(x, pad, mode="edge")
    csum = np.cumsum(padded, axis=axis)
    zero_shape = list(csum.shape)
    zero_shape[axis] = 1
    csum = np.concatenate([np.zeros(zero_shape), csum], axis=axis)
    n = x.shape[axis]
    hi = [slice(None)] * x.ndim
    lo = [slice(None)] * x.ndim
    hi[axis] = slice(k, k + n)
    lo[axis] = slice(0, n)
    return (csum[tuple(hi)] - csum[tuple(lo)]) / k


def blur(s: Sample, radius: int) -> Sample:
    """Box blur of side 2*radius + 1 per channel; labels unchanged."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0: {radius}")
    if radius == 0:
        return Sample(s.image.copy(), list(s.labels), list(s.weights))
    img = _box_mean_1d(_box_mean_1d(s.image, radius, axis=0), radius, axis=1)
    return Sample(np.clip(img, 0.0, 1.0), list(s.labels), list(s.weights))
