"""Feature-map primitives: SPP pooling, DropBlock, point-wise attention,
and activations with derivatives.

Feature maps are numpy arrays of shape (channels, height, width).
"""

from __future__ import annotations

import math

import numpy as np

from detbag.decode import sigmoid

SPP_DEFAULT_KERNELS = (1, 5, 9, 13)
LEAKY_RELU_SLOPE = 0.1


def _check_map(f: np.ndarray, name: str = "feature map") -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim != 3:
        raise ValueError(f"{name} must be (C, H, W), got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError(f"{name} contains non-finite values")
    return f


def _sliding_max(x: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Max over a length-k window, stride 1, centered; out-of-bounds cells
    contribute nothing (pad with -inf)."""
    if k == 1:
        return x
    p = (k - 1) // 2
    pad = [(0, 0)] * x.ndim
    pad[axis] = (p, p)
    padded = np.pad(x, pad, constant_values=-np.inf)
    n = x.shape[axis]
    sl = [slice(None)] * x.ndim
    out = None
    for i in range(k):
        sl[axis] = slice(i, i + n)
        view = padded[tuple(sl)]
        out = view if out is None else np.maximum(out, view)
    return out


def max_pool_same(f: np.ndarray, k: int) -> np.ndarray:
    """k x k max pool, stride 1, output spatially identical to the input."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel must be odd and positive: {k}")
    return _sliding_max(_sliding_max(f, k, axis=1), k, axis=2)


def spp(f: np.ndarray, kernels: tuple[int, ...] = SPP_DEFAULT_KERNELS) -> np.ndarray:
    """Spatial pyramid pooling: channel-concatenated stride-1 max pools.

    Output has C * len(kernels) channels and unchanged spatial dims.
    """
    f = _check_map(f)
    return np.concatenate([max_pool_same(f, k) for k in kernels], axis=0)


def dropblock_mask(h: int, w: int, block_size: int, keep_prob: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Structured dropout mask zeroing contiguous block_size squares.

    Seed cells are drawn Bernoulli(gamma) over the positions where a full
    block fits, with gamma chosen so the expected kept fraction is close to
    keep_prob. Returns (mask of 0/1 floats shaped (h, w), rescale factor
    total_cells / kept_cells to preserve activation magnitude).
    """
    if h < 1 or w < 1:
        raise ValueError(f"mask dims must be positive: {h}x{w}")
    if not 1 <= block_size <= min(h, w):
        raise ValueError(f"block_size {block_size} does not fit in {h}x{w}")
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob outside (0, 1]: {keep_prob}")
    mask = np.ones((h, w))
    if keep_prob == 1.0:
        return mask, 1.0
    vh, vw = h - block_size + 1, w - block_size + 1
    gamma = (1.0 - keep_prob) / block_size**2 * (h * w) / (vh * vw)
    seeds = rng.random((vh, vw)) < gamma
    for i, j in np.argwhere(seeds):
        mask[i:i + block_size, j:j + block_size] = 0.0
    kept = float(mask.sum())
    scale = (h * w) / kept if kept > 0 else 1.0
    return mask, scale


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def pointwise_sam(f: np.ndarray, attention_logits: np.ndarray) -> np.ndarray:
    """Point-wise spatial attention: f * sigmoid(logits), element-wise."""
    f = _check_map(f)
    a = _check_map(attention_logits, "attention logits")
    if f.shape != a.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {a.shape}")
    return f * _sigmoid_array(a)


def _softplus(x: float) -> float:
    # exact: for x > 0, ln(1+e^x) = x + ln(1+e^-x); keeps exp() underflowing
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def activation(x: float, kind: str = "mish") -> tuple[float, float]:
    """Value and analytic derivative of an activation function.

    mish(x) = x * tanh(softplus(x)); swish(x) = x * sigmoid(x);
    leaky_relu(x) = x for x >= 0 else LEAKY_RELU_SLOPE * x. All are
    overflow-safe for |x| at least up to 1e4.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite input: {x}")
    if kind == "mish":
        t = math.tanh(_softplus(x))
        return x * t, t + x * (1.0 - t * t) * sigmoid(x)
    if kind == "swish":
        s = sigmoid(x)
        return x * s, s * (1.0 + x * (1.0 - s))
    if kind == "leaky_relu":
        if x >= 0.0:
            return x, 1.0
        return LEAKY_RELU_SLOPE * x, LEAKY_RELU_SLOPE
    raise ValueError(f"unknown activation kind: {kind!r}")
