"""Command-line front end.

Subcommands: optimize-anchors, eval, augment, schedule. Every
run is fully determined by its flags and the --seed value; machine-readable
output is available behind --json where it makes sense.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from detbag import augment as aug
from detbag import evalap, ingest, nms, trainsched
from detbag.decode import DEFAULT_ASSIGN_IOU_THRESHOLD
from detbag.evolve import anchor_recall, evolve_anchors, kmeans_anchors
from detbag.geometry import MAX_SHAPE_AREA, _shape_ok


def cmd_optimize_anchors(args) -> int:
    if not 1 <= args.resolution <= sys.float_info.max:
        raise ValueError(f"--resolution must be from 1 to {sys.float_info.max}: "
                         f"{args.resolution}")
    index = ingest.load_annotations(args.annotations)
    sizes = {im.id: im for im in index.images}
    shapes = []
    for ann in index.annotations:
        im = sizes[ann.image_id]
        w = ann.bbox[2] * args.resolution / im.width
        h = ann.bbox[3] * args.resolution / im.height
        if w > 0 and h > 0:
            if not _shape_ok(w, h):
                raise ValueError(f"--resolution {args.resolution} scales annotation {ann.id} "
                                 f"to a {w}x{h} box of area above {MAX_SHAPE_AREA}")
            shapes.append((w, h))
    if not shapes:
        raise ValueError("dataset contains no boxes with positive size")
    shapes = np.array(shapes)
    result = kmeans_anchors(shapes, args.k, iters=args.iters, rng=np.random.default_rng(args.seed))
    anchors = result.anchors
    if args.evolve:
        anchors, recall, mean_iou, history = evolve_anchors(
            shapes, anchors, args.threshold, max_side=2.0 * args.resolution, seed=args.seed,
            population=args.evolve_population, generations=args.evolve_generations)
    else:
        recall, mean_iou = anchor_recall(shapes, anchors, args.threshold)

    payload = {
        "anchors": [[a.w, a.h] for a in anchors],
        "recall": recall,
        "recall_threshold": args.threshold,
        "mean_best_iou": mean_iou,
        "kmeans_distance_per_iteration": result.distance_per_iteration,
    }
    if args.evolve:
        # a generation without a valid candidate has a NaN mean: JSON null
        payload["ga_history"] = [
            [h.generation, h.best, None if math.isnan(h.mean) else h.mean]
            for h in history]
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for a in anchors:
            print(f"{a.w:.2f},{a.h:.2f}")
        print(f"recall@{args.threshold}: {recall:.4f}  "
              f"(mean best IoU {mean_iou:.4f}, {len(shapes)} boxes)")
    return 0


def _apply_nms(dets_by_image, args):
    suppress = {
        "greedy": lambda dets: nms.greedy_nms(dets, args.nms_threshold),
        "diou": lambda dets: nms.diou_nms(dets, args.nms_threshold),
        "soft": lambda dets: nms.soft_nms(dets, args.nms_threshold, sigma=args.sigma,
                                          mode=args.soft_mode),
    }[args.nms]
    suppress([])  # runs the argument checks even when no image has detections
    return {img: suppress(dets) for img, dets in dets_by_image.items()}


def _format_metric(v) -> str:
    return "-" if v is None else f"{v:.4f}"


def cmd_eval(args) -> int:
    index = ingest.load_annotations(args.annotations)
    records = ingest.read_json(args.detections)
    if not isinstance(records, list):
        raise ValueError(f"{args.detections}: detections file must be a JSON array of results")
    dets = ingest.parse_coco_detections(records)
    if args.nms != "none":
        dets = _apply_nms(dets, args)
    result = evalap.evaluate(dets, index.truths_by_image())
    if args.json:
        print(json.dumps(result.as_dict(), indent=1))
    else:
        cols = result.as_dict()
        print("  ".join(f"{k:>6}" for k in cols))
        print("  ".join(f"{_format_metric(v):>6}" for v in cols.values()))
    return 0


def _load_samples(index: ingest.DatasetIndex, images_dir: Path):
    missing = [im.file_name for im in index.images
               if not (images_dir / im.file_name).is_file()]
    if missing:
        raise ValueError(f"missing image files in {images_dir}: "
                         f"{', '.join(sorted(missing))}")
    anns: dict[int, list[ingest.AnnotationRec]] = {im.id: [] for im in index.images}
    for a in index.annotations:
        anns[a.image_id].append(a)
    samples = []
    for im in sorted(index.images, key=lambda im: im.id):
        image = ingest.load_image(images_dir / im.file_name)
        if image.shape[:2] != (im.height, im.width):
            raise ValueError(f"{im.file_name}: file is {image.shape[1]}x"
                             f"{image.shape[0]}, index says {im.width}x{im.height}")
        samples.append(aug.Sample(image, [(a.to_box(), a.category_id) for a in anns[im.id]],
                                  [a.weight for a in anns[im.id]]))
    return samples


def _photometric_jittered(sample, args, rng):
    return aug.photometric(
        sample,
        brightness=rng.uniform(-args.brightness, args.brightness),
        contrast=rng.uniform(1.0 - args.contrast, 1.0 + args.contrast),
        hue=rng.uniform(-args.hue, args.hue),
        saturation=rng.uniform(1.0 - args.saturation, 1.0 + args.saturation),
        noise_sigma=args.noise_sigma,
        rng=rng,
    )


def cmd_augment(args) -> int:
    if args.op == "photometric":  # rng.uniform needs 0 <= high - low < inf
        for flag in ("brightness", "contrast", "hue", "saturation", "noise_sigma"):
            value, name = getattr(args, flag), flag.replace("_", "-")
            if not math.isfinite(value):
                raise ValueError(f"--{name} must be finite: {value}")
            if value < 0:
                raise ValueError(f"--{name} must be >= 0: {value}")
            if flag != "noise_sigma" and not math.isfinite(2.0 * value):
                raise ValueError(f"--{name} draws from a range 2 * {value} wide, which overflows")
    if args.op == "mosaic" and args.out_size < 2:
        raise ValueError(f"--out-size must be >= 2: {args.out_size}")
    if args.op == "blur" and args.radius < 0:
        raise ValueError(f"--radius must be >= 0: {args.radius}")
    index = ingest.load_annotations(args.annotations)
    samples = _load_samples(index, Path(args.images_dir))
    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    produced: list[aug.Sample] = []
    if args.op == "mosaic":
        for i in range(len(samples) // 4):
            produced.append(aug.mosaic(samples[4 * i:4 * i + 4],
                                       args.out_size, args.out_size, rng))
    elif args.op in ("mixup", "cutmix"):
        for i in range(len(samples) // 2):
            a, b = samples[2 * i], samples[2 * i + 1]
            if args.op == "mixup":
                produced.append(aug.mixup(a, b, float(rng.uniform(0.0, 1.0))))
            else:
                produced.append(aug.cutmix(a, b, rng))
    elif args.op == "photometric":
        produced = [_photometric_jittered(s, args, rng) for s in samples]
    else:  # blur
        produced = [aug.blur(s, args.radius) for s in samples]

    images, annotations = [], []
    for i, sample in enumerate(produced, start=1):
        name = f"{args.op}_{i:04d}.ppm"
        ingest.save_image(sample.image, out_dir / name)
        images.append(ingest.ImageInfo(i, name, sample.width, sample.height))
        for (box, cid), weight in zip(sample.labels, sample.weights):
            annotations.append(ingest.AnnotationRec(
                len(annotations) + 1, i,
                (box.x_min, box.y_min, box.width, box.height), cid, weight))
    ingest.save_annotations(
        ingest.DatasetIndex(tuple(images), tuple(annotations), index.categories),
        out_dir / "annotations.json")
    print(f"wrote {len(produced)} samples to {out_dir}")
    return 0


def _milestones(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated --milestones list; empty entries skip."""
    out = []
    for i, entry in enumerate(text.split(","), start=1):
        if entry:
            try:
                out.append(int(entry))
            except ValueError:
                raise ValueError(f"--milestones entry {i} is not an integer: "
                                 f"{entry!r}") from None
    return tuple(out)


def cmd_schedule(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1: {args.steps}")
    steps = range(args.steps + 1)
    if args.kind == "cosine":
        rates = [trainsched.cosine_lr(t, args.steps, args.lr, args.lr_min) for t in steps]
    else:
        milestones = _milestones(args.milestones)
        rates = [trainsched.step_decay_lr(t, milestones, args.lr, args.factor) for t in steps]
    text = "step,lr\n" + "".join(f"{t},{lr!r}\n" for t, lr in zip(steps, rates))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detbag",
        description="Detector training freebies and post-processing tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize-anchors",
                       help="k-means anchor shapes from a dataset")
    p.add_argument("annotations")
    p.add_argument("--k", type=int, default=9)
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--threshold", type=float,
                   default=DEFAULT_ASSIGN_IOU_THRESHOLD)
    p.add_argument("--evolve", action="store_true",
                   help="refine the k-means anchors with a genetic search")
    p.add_argument("--evolve-generations", type=int, default=30)
    p.add_argument("--evolve-population", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_optimize_anchors)

    p = sub.add_parser("eval", help="COCO-style AP over a detections file")
    p.add_argument("detections")
    p.add_argument("annotations")
    p.add_argument("--nms", choices=("none", "greedy", "soft", "diou"),
                   default="none")
    p.add_argument("--nms-threshold", type=float, default=0.45)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--soft-mode", choices=("linear", "gaussian"),
                   default="linear")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("augment", help="write augmented PPMs plus annotations")
    p.add_argument("annotations")
    p.add_argument("images_dir")
    p.add_argument("--op", required=True,
                   choices=("mosaic", "mixup", "cutmix", "photometric", "blur"))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-size", type=int, default=512,
                   help="mosaic canvas side length")
    p.add_argument("--radius", type=int, default=1, help="blur radius")
    p.add_argument("--brightness", type=float, default=0.1)
    p.add_argument("--contrast", type=float, default=0.2)
    p.add_argument("--hue", type=float, default=0.05)
    p.add_argument("--saturation", type=float, default=0.3)
    p.add_argument("--noise-sigma", type=float, default=0.02)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("schedule", help="emit a learning-rate schedule CSV")
    p.add_argument("--kind", choices=("cosine", "step"), required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--lr-max", "--lr0", dest="lr", type=float,
                   default=trainsched.DEFAULT_INITIAL_LR, help="the rate at step 0")
    p.add_argument("--lr-min", type=float, default=0.0)
    p.add_argument("--milestones", type=str,
                   default=",".join(str(m) for m in trainsched.DEFAULT_MILESTONES))
    p.add_argument("--factor", type=float,
                   default=trainsched.DEFAULT_DECAY_FACTOR)
    p.add_argument("--out", type=str, default="-",
                   help="output CSV path, - for stdout")
    p.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's own message names no flag
            raise ValueError(f"--seed must be >= 0: {args.seed}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
