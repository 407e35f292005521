"""Genetic hyperparameter search and anchor-shape optimization.

The evolution strategy is mutation-only: each generation samples a parent
from the current top performers (fitness-weighted), perturbs entries with
multiplicative gaussian noise, clamps to bounds, and keeps the best vector
ever seen. Anchor optimization is k-means under the 1 - IoU shape distance
with median centroid updates; `evolve_anchors` refines its result by GA.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from detbag.decode import Anchor
from detbag.geometry import MAX_SHAPE_AREA

logger = logging.getLogger(__name__)

# each generation samples parents from this many top performers, and
# mutates each entry of a child with this probability
PARENT_POOL = 5
MUTATION_PROB = 0.9


@dataclass(frozen=True)
class HyperEntry:
    """One bounded hyperparameter with its mutation scale."""

    value: float
    low: float
    high: float
    mutate_scale: float = 0.2

    def __post_init__(self):
        if not self.low <= self.value <= self.high:
            raise ValueError(f"value outside bounds: {self}")
        if self.mutate_scale <= 0:
            raise ValueError(f"mutate_scale must be positive: {self}")


@dataclass(frozen=True)
class HyperVector:
    """Named, bounded hyperparameters; the unit of genetic evolution."""

    entries: dict[str, HyperEntry]

    def __getitem__(self, name: str) -> float:
        return self.entries[name].value

    def values(self) -> dict[str, float]:
        return {k: e.value for k, e in self.entries.items()}

    def with_values(self, values: dict[str, float]) -> "HyperVector":
        """New vector with updated values, clamped to each entry's bounds."""
        out = {}
        for k, e in self.entries.items():
            v = float(min(max(values.get(k, e.value), e.low), e.high))
            out[k] = HyperEntry(v, e.low, e.high, e.mutate_scale)
        return HyperVector(out)


@dataclass(frozen=True)
class GAConfig:
    population: int = 10
    generations: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.population < 1 or self.generations < 1:
            raise ValueError(f"population sizes must be positive: {self}")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float  # best-so-far fitness, nondecreasing across the history
    mean: float  # mean fitness of this generation's valid candidates


def _mutate(vec: HyperVector, rng: np.random.Generator) -> HyperVector:
    values = {}
    for name, e in vec.entries.items():
        v = e.value
        if rng.random() < MUTATION_PROB:
            v = v * (1.0 + rng.normal(0.0, e.mutate_scale))
        values[name] = v
    return vec.with_values(values)


def _sample_parent(pool: list[tuple[float, HyperVector]],
                   rng: np.random.Generator) -> HyperVector:
    ranked = heapq.nsmallest(PARENT_POOL, range(len(pool)),
                             key=lambda i: (-pool[i][0], i))
    fits = np.array([pool[i][0] for i in ranked])
    weights = fits - fits.min() + 1e-12
    weights /= weights.sum()
    return pool[ranked[int(rng.choice(len(ranked), p=weights))]][1]


def evolve(seed: HyperVector, fitness, cfg: GAConfig = GAConfig(),
           ) -> tuple[HyperVector, list[GenerationStats]]:
    """Mutation-based evolution of a hyperparameter vector.

    fitness maps a HyperVector to a float, higher is better, and must be
    deterministic. Candidates with non-finite fitness are discarded with a
    warning. Returns the best vector ever evaluated and the per-generation
    history; the best-so-far column is nondecreasing by construction.
    """
    rng = np.random.default_rng(cfg.seed)
    seed_fit = float(fitness(seed))
    if not np.isfinite(seed_fit):
        raise ValueError("seed vector has non-finite fitness")
    pool: list[tuple[float, HyperVector]] = [(seed_fit, seed)]
    best_fit, best_vec = seed_fit, seed
    history = [GenerationStats(0, best_fit, seed_fit)]

    for gen in range(1, cfg.generations + 1):
        gen_fits = []
        for _ in range(cfg.population):
            parent = _sample_parent(pool, rng)
            child = _mutate(parent, rng)
            f = float(fitness(child))
            if not np.isfinite(f):
                logger.warning("discarding candidate with non-finite fitness: %s",
                               child.values())
                continue
            pool.append((f, child))
            gen_fits.append(f)
            if f > best_fit:
                best_fit, best_vec = f, child
        mean = float(np.mean(gen_fits)) if gen_fits else float("nan")
        history.append(GenerationStats(gen, best_fit, mean))
    return best_vec, history


def _shape_columns(shapes, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous w and h columns of an (n, 2) array of box shapes. Sides
    must be finite and non-negative and each area at most `MAX_SHAPE_AREA`,
    so that the union of any two shapes is finite."""
    arr = np.asarray(shapes, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ValueError(f"{name} must be a non-empty (n, 2) array of (w, h), "
                         f"got shape {arr.shape}")
    w, h = np.ascontiguousarray(arr.T)
    with np.errstate(over="ignore", invalid="ignore"):
        area = w * h
    # NaN fails both tests; an infinite side makes its area inf or NaN
    if not (arr.min() >= 0.0 and area.max() <= MAX_SHAPE_AREA):
        raise ValueError(f"{name} must have finite, non-negative sides and areas "
                         f"at most {MAX_SHAPE_AREA}")
    return w, h


def _shape_iou(w: np.ndarray, h: np.ndarray, aw: float, ah: float) -> np.ndarray:
    """`decode.shape_iou` of n shapes (w, h) against one shape (aw, ah).

    Each ufunc runs over one contiguous row of n values, so the temporaries
    stay in cache. Equals `shape_iou` exactly, including 0 for an empty
    union, and so the corner-form `box_iou` of the concentric boxes for any
    sides that halve exactly (all but subnormal floats).
    """
    inter = np.minimum(w, aw)
    inter *= np.minimum(h, ah)
    union = w * h
    union += aw * ah
    union -= inter
    out = np.zeros(len(w))
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def _recall_columns(shapes, anchors: list[Anchor], threshold: float):
    """The (w, h) columns of `anchor_recall`'s shapes, after its checks."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold outside (0, 1): {threshold}")
    if len(anchors) == 0:
        raise ValueError("anchors must not be empty")
    return _shape_columns(shapes, "shapes")


def _recall(w: np.ndarray, h: np.ndarray, anchors: list[Anchor],
            threshold: float) -> tuple[float, float]:
    """`anchor_recall` of checked shape columns."""
    best = _shape_iou(w, h, float(anchors[0].w), float(anchors[0].h))
    for a in anchors[1:]:
        np.maximum(best, _shape_iou(w, h, float(a.w), float(a.h)), out=best)
    return float((best > threshold).mean()), float(best.mean())


def anchor_recall(shapes, anchors: list[Anchor],
                  threshold: float) -> tuple[float, float]:
    """(recall at the assignment threshold, mean best IoU) of box shapes
    against a set of anchors; the desk-scale fitness behind --evolve.
    Raises ValueError on a threshold outside (0, 1), on no anchors, and on
    shapes that are empty, not (n, 2), or have a negative, NaN or infinite
    side or an area above `MAX_SHAPE_AREA`."""
    return _recall(*_recall_columns(shapes, anchors, threshold), anchors, threshold)


def evolve_anchors(shapes, seed_anchors: list[Anchor], threshold: float, *, max_side: float,
                   population: int, generations: int, seed: int):
    """GA refinement of anchor sides within [1, max_side]; fitness is recall at
    the threshold plus 1e-6 x mean best IoU. The GA starts from the seed sides
    clamped into those bounds. Returns (anchors sorted by area, recall, mean
    best IoU, GA history), or the seed anchors if they score higher."""
    w, h = _recall_columns(shapes, seed_anchors, threshold)
    seed_scores = _recall(w, h, seed_anchors, threshold)
    entries = {}
    for i, a in enumerate(seed_anchors):
        entries[f"w{i}"] = HyperEntry(min(max(a.w, 1.0), max_side), 1.0, max_side, 0.1)
        entries[f"h{i}"] = HyperEntry(min(max(a.h, 1.0), max_side), 1.0, max_side, 0.1)

    def as_anchors(vec: HyperVector) -> list[Anchor]:
        return [Anchor(vec[f"w{i}"], vec[f"h{i}"]) for i in range(len(seed_anchors))]

    def fitness(vec: HyperVector) -> float:
        recall, mean_iou = _recall(w, h, as_anchors(vec), threshold)
        return recall + 1e-6 * mean_iou

    best, history = evolve(HyperVector(entries), fitness, GAConfig(population, generations, seed))
    anchors = sorted(as_anchors(best), key=lambda a: a.w * a.h)
    recall, mean_iou = _recall(w, h, anchors, threshold)
    if (recall, mean_iou) < seed_scores:
        return list(seed_anchors), *seed_scores, history
    return anchors, recall, mean_iou, history


@dataclass(frozen=True)
class KMeansResult:
    anchors: list[Anchor]  # sorted by area, ascending
    # total 1 - IoU assignment distance recorded after each assignment step
    distance_per_iteration: list[float]


def kmeans_anchors(boxes, k: int, iters: int = 100, *,
                   rng: np.random.Generator) -> KMeansResult:
    """Cluster positive (w, h) box shapes into k anchors.

    Distance is 1 - IoU of concentric shapes; centroids update to the
    per-cluster median of w and h (robust to outliers). The median step is
    not the exact minimizer of the IoU distance, so near convergence the
    objective can tick up; the loop therefore stops at the first
    non-improving iteration (or when assignments stabilize, or after iters
    rounds) and returns the best centroids seen. Empty clusters are
    reseeded from the box farthest from its centroid.
    """
    w, h = _shape_columns(boxes, "boxes")
    if not (w.min() > 0.0 and h.min() > 0.0):
        raise ValueError("boxes must have positive sides")
    shapes = np.column_stack((w, h))
    distinct = np.unique(shapes, axis=0)
    if k < 1 or k > len(distinct):
        raise ValueError(f"k={k} but only {len(distinct)} distinct shapes")
    if iters < 1:
        raise ValueError(f"iters must be >= 1: {iters}")

    centroids = distinct[rng.choice(len(distinct), size=k, replace=False)].copy()
    best_centroids = centroids.copy()
    assign = np.full(len(shapes), -1)
    distances: list[float] = []
    for _ in range(iters):
        dist = 1.0 - np.stack([_shape_iou(w, h, aw, ah) for aw, ah in centroids], axis=1)
        new_assign = dist.argmin(axis=1)
        per_box = dist[np.arange(len(shapes)), new_assign]
        counts = np.bincount(new_assign, minlength=k)
        # reseed empties from the farthest box so every cluster stays live;
        # the counts follow each move, which can empty a later cluster
        for c in range(k):
            if counts[c] == 0:
                far = int(per_box.argmax())
                counts[new_assign[far]] -= 1
                counts[c] += 1
                centroids[c] = shapes[far]
                new_assign[far] = c
                per_box[far] = 0.0
        total = float(per_box.sum())
        if distances and total >= distances[-1]:
            break
        distances.append(total)
        best_centroids = centroids.copy()
        if (new_assign == assign).all():
            break
        assign = new_assign
        # a stable sort keeps each cluster's boxes in input order; a reseed
        # can take the last box of an earlier cluster, which then keeps its
        # centroid until the next assignment step
        groups = np.split(shapes[np.argsort(assign, kind="stable")], np.cumsum(counts)[:-1])
        for c, group in enumerate(groups):
            if len(group):
                centroids[c] = np.median(group, axis=0)

    order = np.argsort(best_centroids[:, 0] * best_centroids[:, 1], kind="stable")
    anchors = [Anchor(float(w), float(h)) for w, h in best_centroids[order]]
    return KMeansResult(anchors, distances)
