"""The four seeded workloads.

Each workload drives detbag only through its public functions, the way a
validation script, `detbag eval`, a data loader and a training step do. A
pass is the timed phase: `prelude`, then `items_per_pass` calls of `item`,
then `finalize`. `setup` makes every input from the seed (files go under
`workdir`); `begin` binds the layer calls through a Tracer and is untimed;
`settle` runs untimed after each item; `check` compares a pass's outputs
with the references in `oracles` and raises `CheckFailed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from detbag import augment, cli, decode, evalap, evolve, featuremap, geometry
from detbag import ingest, losses, nms, trainsched
from detbag.decode import Anchor, DecodeConfig, RawPrediction
from detbag.geometry import Box

from detbench import oracles
from detbench.oracles import CheckFailed
from detbench.spans import Tracer

# YOLOv4's nine COCO anchors at 608 px, rescaled per workload
COCO_ANCHORS_608 = ((12, 16), (19, 36), (40, 28), (36, 75), (76, 55),
                    (72, 146), (142, 110), (192, 243), (459, 401))


def _rng(seed: int, tag: str, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(tag.encode()), *more])


def _write_json(path: Path, payload) -> int:
    text = json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return len(text.encode())


def _coco_annotations(truths: dict[int, list], size: tuple[int, int],
                      categories) -> dict:
    images, anns = [], []
    for img, labeled in truths.items():
        images.append({"id": img, "file_name": f"img_{img:04d}.ppm",
                       "width": size[0], "height": size[1]})
        for box, cid in labeled:
            anns.append({"id": len(anns) + 1, "image_id": img, "category_id": cid,
                         "bbox": [box.x_min, box.y_min, box.width, box.height]})
    return {"images": images, "annotations": anns,
            "categories": [{"id": c, "name": f"class{c}"} for c in categories]}


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _planted_box(rng, lo, hi, width, height) -> Box:
    w, h = (float(v) for v in _log_uniform(rng, lo, hi, 2))
    x = float(rng.uniform(0, width - w))
    y = float(rng.uniform(0, height - h))
    return Box(x, y, x + w, y + h)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


class Workload:
    name = ""
    items_per_pass = 0
    # hostspeed kernels that slow as the items and finalize step do, and as
    # the prelude does
    host_kernel = "python"
    prelude_kernel = "python"

    def prelude(self, ctx) -> None:
        """Timed work before the items."""

    def finalize(self, ctx) -> None:
        """Timed work after the items."""

    def settle(self, ctx, i) -> None:
        """Untimed bookkeeping after item i."""


class ValDecode(Workload):
    """320x320 validation: per-cell decode of a 3-scale head, confidence
    threshold, per-image DIoU-NMS, then one evaluate over all images."""

    name = "val-decode"
    items_per_pass = 8
    size = 320
    classes = 20
    objects = 8
    duplicates = 6
    conf = 0.005
    nms_threshold = 0.45
    s = decode.DEFAULT_SENSITIVITY_SCALE

    def setup(self, seed: int, workdir: Path):
        rng = _rng(seed, self.name)
        k = self.size / 608
        anchors = [(w * k, h * k) for w, h in COCO_ANCHORS_608]
        scales = []  # (stride, grid, anchors); small anchors on the fine grid
        for level, stride in enumerate((8, 16, 32)):
            grid = self.size // stride
            scale_anchors = anchors[3 * level:3 * level + 3]
            cfg = DecodeConfig(grid, grid, float(stride),
                               tuple(Anchor(w, h) for w, h in scale_anchors),
                               sensitivity_scale=self.s)
            scales.append((cfg, scale_anchors))
        heads, preds, truths = [], [], {}
        for img in range(self.items_per_pass):
            head = [self._background(rng, cfg) for cfg, _ in scales]
            truths[img] = []
            for _ in range(self.objects):
                box = _planted_box(rng, 8, 200, self.size, self.size)
                cid = int(rng.integers(0, self.classes))
                truths[img].append((box, cid))
                self._plant(rng, head, scales, anchors, box, cid)
            heads.append(head)
            preds.append([(cfg, self._raw_predictions(h)) for (cfg, _), h in zip(scales, head)])
        return SimpleNamespace(scales=scales, heads=heads, preds=preds, truths=truths)

    def _background(self, rng, cfg):
        g = cfg.grid_w
        head = np.empty((3, 5 + self.classes, g, g))
        head[:, 0:2] = rng.normal(0.0, 1.0, (3, 2, g, g))
        head[:, 2:4] = rng.normal(0.0, 0.5, (3, 2, g, g))
        head[:, 4] = rng.normal(-7.0, 1.0, (3, g, g))
        head[:, 5:] = rng.normal(-5.0, 1.0, (3, self.classes, g, g))
        return head

    def _plant(self, rng, head, scales, anchors, box, cid):
        """The best-shaped anchor's cell predicts the object; nearby cells
        and slots predict noisy duplicates of it."""
        c = box.to_center()
        inter = [min(c.w, aw) * min(c.h, ah) for aw, ah in anchors]
        shape_iou = [i / (c.w * c.h + aw * ah - i) for i, (aw, ah) in zip(inter, anchors)]
        best = int(np.argmax(shape_iou))
        level, slot = divmod(best, 3)
        cfg, level_anchors = scales[level]
        cx = min(int(c.x_c / cfg.stride), cfg.grid_w - 1)
        cy = min(int(c.y_c / cfg.stride), cfg.grid_h - 1)
        targets = [(cx, cy, slot, 0.0, 4.0, 4.0)]
        for _ in range(self.duplicates):
            dx, dy = (int(v) for v in rng.integers(-1, 2, 2))
            targets.append((min(max(cx + dx, 0), cfg.grid_w - 1),
                            min(max(cy + dy, 0), cfg.grid_h - 1),
                            int(rng.integers(0, 3)), 0.1,
                            float(rng.normal(0.5, 1.0)), float(rng.normal(1.0, 1.0))))
        reach = (self.s - 1.0) / 2.0
        for gx, gy, a, jitter, obj, cls in targets:
            aw, ah = level_anchors[a]
            x = c.x_c + rng.normal(0.0, jitter * c.w)
            y = c.y_c + rng.normal(0.0, jitter * c.h)
            fx = min(max(x / cfg.stride - gx, -reach + 0.01), 1.0 + reach - 0.01)
            fy = min(max(y / cfg.stride - gy, -reach + 0.01), 1.0 + reach - 0.01)
            cell = head[level][a, :, gy, gx]
            cell[0] = _logit((fx + reach) / self.s)
            cell[1] = _logit((fy + reach) / self.s)
            cell[2] = math.log(c.w / aw) + rng.normal(0.0, 0.05 + 2 * jitter)
            cell[3] = math.log(c.h / ah) + rng.normal(0.0, 0.05 + 2 * jitter)
            cell[4] = obj + rng.normal(0.0, 0.5)
            cell[5 + cid] = cls + rng.normal(0.0, 0.5)

    @staticmethod
    def _raw_predictions(head):
        n_a, _, gh, gw = head.shape
        rows = head.transpose(0, 2, 3, 1).reshape(n_a * gh * gw, -1).tolist()
        out = []
        for k, r in enumerate(rows):
            a, rest = divmod(k, gh * gw)
            cy, cx = divmod(rest, gw)
            out.append(RawPrediction(r[0], r[1], r[2], r[3], r[4], tuple(r[5:]),
                                     (cx, cy), a))
        return out

    def warm(self, state):
        cfg, preds = state.preds[0][0]
        for p in preds[:100]:
            decode.decode(p, cfg)

    def begin(self, state, tr):
        return SimpleNamespace(
            state=state, tr=tr,
            diou_nms=tr.wrap(nms.diou_nms, "nms.diou_nms"),
            evaluate=tr.wrap(evalap.evaluate, "evalap.evaluate"),
            decoded={}, candidates={}, kept={}, row=None)

    def item(self, ctx, i):
        conf = self.conf
        decoded = []
        for cfg, preds in ctx.state.preds[i]:
            with ctx.tr.span("decode.decode", calls=len(preds)):
                decoded.extend(map(decode.decode, preds, repeat(cfg)))
        hits = []  # (decoded cell, class id, score) at or above the threshold
        for d in decoded:
            if d.objectness < conf:  # class probabilities are at most 1
                continue
            scores = d.objectness * d.class_probs
            hits += [(d, int(c), float(scores[c])) for c in np.flatnonzero(scores >= conf)]
        with ctx.tr.span("nms.Detection", calls=len(hits)):
            cands = [nms.Detection(d.box.to_corner(), score, cid) for d, cid, score in hits]
        kept = ctx.diou_nms(cands, self.nms_threshold)
        ctx.tr.count("nms.boxes_in", len(cands))
        ctx.tr.count("nms.boxes_out", len(kept))
        ctx.decoded[i], ctx.candidates[i], ctx.kept[i] = decoded, cands, kept

    def finalize(self, ctx):
        ctx.row = ctx.evaluate(ctx.kept, ctx.state.truths).as_dict()
        ctx.tr.count("evalap.dets_in", sum(len(k) for k in ctx.kept.values()))
        ctx.tr.count("evalap.truths_in", sum(len(t) for t in ctx.state.truths.values()))

    def digest(self, ctx):
        return repr((ctx.row, [[(d.box, d.score, d.class_id) for d in ctx.kept[i]]
                               for i in sorted(ctx.kept)]))

    def check(self, ctx):
        state = ctx.state
        for i in range(self.items_per_pass):
            want = np.concatenate([
                oracles.closed_form_decode(h, cfg.stride, anchors, self.s)
                .transpose(0, 2, 3, 1).reshape(-1, 5 + self.classes)
                for h, (cfg, anchors) in zip(state.heads[i], state.scales)])
            got = np.array([(d.box.x_c, d.box.y_c, d.box.w, d.box.h, d.objectness,
                             *d.class_probs) for d in ctx.decoded[i]])
            try:
                oracles.check_decoded(want, got)
                oracles.check_survivors(
                    ctx.kept[i],
                    oracles.reference_diou_nms(ctx.candidates[i], self.nms_threshold),
                    "DIoU-NMS")
            except CheckFailed as exc:
                exc.item = i
                raise
        oracles.check_ap_row(ctx.row, oracles.reference_evaluate(ctx.kept, state.truths))


class CrowdEval(Workload):
    """`detbag eval --nms soft` on crowded 640x480 images: parse files,
    linear soft-NMS per image, one evaluate."""

    name = "crowd-eval"
    items_per_pass = 15
    width, height = 640, 480
    truths_per_image = 30
    dets_per_truth = 30
    background = 100
    categories = (1, 2, 3)
    nms_threshold = 0.45
    sigma = 0.5
    soft_checked = 2  # images re-run through the quadratic soft-NMS reference

    def setup(self, seed: int, workdir: Path):
        rng = _rng(seed, self.name)
        truths, records = {}, []
        for img in range(1, self.items_per_pass + 1):
            truths[img] = []
            # classes in turn, so every image and seed splits the work alike
            for t in range(self.truths_per_image):
                box = _planted_box(rng, 10, 180, self.width, self.height)
                cid = self.categories[t % len(self.categories)]
                truths[img].append((box, cid))
                for _ in range(self.dets_per_truth):
                    dx, dy = rng.normal(0.0, 0.08, 2) * (box.width, box.height)
                    sw, sh = np.exp(rng.normal(0.0, 0.1, 2))
                    label = cid if rng.random() > 0.05 else int(rng.choice(self.categories))
                    records.append({"image_id": img, "category_id": label,
                                    "bbox": [box.x_min + dx, box.y_min + dy,
                                             box.width * sw, box.height * sh],
                                    "score": float(rng.uniform(0.01, 1.0))})
            for t in range(self.background):
                box = _planted_box(rng, 10, 180, self.width, self.height)
                records.append({"image_id": img,
                                "category_id": self.categories[t % len(self.categories)],
                                "bbox": [box.x_min, box.y_min, box.width, box.height],
                                "score": float(rng.uniform(0.001, 0.3))})
        ann_path, det_path = workdir / "crowd_annotations.json", workdir / "crowd_detections.json"
        ann_bytes = _write_json(ann_path, _coco_annotations(
            truths, (self.width, self.height), self.categories))
        _write_json(det_path, records)
        sample = sorted(rng.choice(self.items_per_pass, self.soft_checked, replace=False))
        return SimpleNamespace(ann_path=ann_path, det_path=det_path, ann_bytes=ann_bytes,
                               soft_sample=[int(v) for v in sample])

    def warm(self, state):
        with open(state.det_path, encoding="utf-8") as fh:
            dets = evalap.parse_coco_detections(json.load(fh)[:200])
        for img_dets in dets.values():
            nms.soft_nms(img_dets, self.nms_threshold, sigma=self.sigma)

    def begin(self, state, tr):
        return SimpleNamespace(
            state=state, tr=tr,
            load_annotations=tr.wrap(ingest.load_annotations, "ingest.load_annotations"),
            parse=tr.wrap(evalap.parse_coco_detections, "evalap.parse_coco_detections"),
            soft_nms=tr.wrap(nms.soft_nms, "nms.soft_nms"),
            evaluate=tr.wrap(evalap.evaluate, "evalap.evaluate"),
            out={}, row=None)

    def prelude(self, ctx):
        index = ctx.load_annotations(ctx.state.ann_path)
        ctx.truths = ctx.tr.wrap(index.truths_by_image, "ingest.truths_by_image")()
        with open(ctx.state.det_path, encoding="utf-8") as fh:
            records = json.load(fh)
        ctx.dets = ctx.parse(records)
        ctx.images = sorted(ctx.truths)
        tr = ctx.tr
        tr.count("ingest.load_annotations.records", len(index.annotations))
        tr.count("ingest.bytes_read", ctx.state.ann_bytes)
        tr.count("evalap.parse_coco_detections.records", len(records))

    def item(self, ctx, i):
        dets = ctx.dets.get(ctx.images[i], [])
        kept = ctx.soft_nms(dets, self.nms_threshold, sigma=self.sigma)
        ctx.out[ctx.images[i]] = kept
        ctx.tr.count("nms.boxes_in", len(dets))
        ctx.tr.count("nms.boxes_out", len(kept))

    def finalize(self, ctx):
        ctx.row = ctx.evaluate(ctx.out, ctx.truths).as_dict()
        ctx.tr.count("evalap.dets_in", sum(len(k) for k in ctx.out.values()))
        ctx.tr.count("evalap.truths_in", sum(len(t) for t in ctx.truths.values()))

    def digest(self, ctx):
        return repr((ctx.row, [[(d.box, d.score, d.class_id) for d in ctx.out[img]]
                               for img in ctx.images]))

    def check(self, ctx):
        for i in ctx.state.soft_sample:
            img = ctx.images[i]
            try:
                oracles.check_soft_nms(ctx.dets.get(img, []), ctx.out[img],
                                       self.nms_threshold)
            except CheckFailed as exc:
                exc.item = i
                raise
        oracles.check_ap_row(ctx.row, oracles.reference_evaluate(ctx.out, ctx.truths))
        check_cli_eval(ctx.state.det_path, ctx.state.ann_path, ctx.row)


def check_cli_eval(det_path, ann_path, row) -> None:
    """`detbag eval --nms soft --json` on the same files prints the same row."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["eval", str(det_path), str(ann_path), "--nms", "soft", "--json"])
    if code != 0:
        raise CheckFailed(f"detbag eval exited {code}")
    printed = json.loads(buf.getvalue())
    if printed != row:
        raise CheckFailed(f"detbag eval printed {printed}, timed path gave {row}")


def _write_ppm(path: Path, pixels: np.ndarray) -> int:
    h, w = pixels.shape[:2]
    data = f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()
    path.write_bytes(data)
    return len(data)


class TrainLoader(Workload):
    """The `detbag augment` loading path: 4 PPM reads and their labels,
    mosaic, photometric jitter at the CLI defaults, hflip and scale."""

    name = "train-loader"
    items_per_pass = 16
    host_kernel = "numpy"
    side = 416
    pool = 8
    boxes_per_image = 6
    categories = (1, 2, 3, 4, 5)
    # the CLI's default jitter ranges
    brightness, contrast, hue, saturation, noise_sigma = 0.1, 0.2, 0.05, 0.3, 0.02

    def setup(self, seed: int, workdir: Path):
        rng = _rng(seed, self.name)
        truths, paths, sizes = {}, {}, {}
        for img in range(1, self.pool + 1):
            paths[img] = workdir / f"img_{img:04d}.ppm"
            sizes[img] = _write_ppm(paths[img], rng.integers(0, 256, (self.side, self.side, 3)))
            truths[img] = [(_planted_box(rng, 16, 200, self.side, self.side),
                            int(rng.choice(self.categories)))
                           for _ in range(self.boxes_per_image)]
        ann_path = workdir / "loader_annotations.json"
        ann_bytes = _write_json(ann_path, _coco_annotations(
            truths, (self.side, self.side), self.categories))
        return SimpleNamespace(seed=seed, ann_path=ann_path, ann_bytes=ann_bytes,
                               paths=paths, sizes=sizes, digests={})

    def warm(self, state):
        ctx = self.begin(state, Tracer())
        self.prelude(ctx)
        self.item(ctx, 0)

    def begin(self, state, tr):
        return SimpleNamespace(
            state=state, tr=tr, rng=_rng(state.seed, self.name, 1),
            load_annotations=tr.wrap(ingest.load_annotations, "ingest.load_annotations"),
            load_image=tr.wrap(ingest.load_image, "ingest.load_image"),
            sample=tr.wrap(augment.Sample, "augment.Sample"),
            mosaic=tr.wrap(augment.mosaic, "augment.mosaic"),
            photometric=tr.wrap(augment.photometric, "augment.photometric"),
            geometric=tr.wrap(augment.geometric, "augment.geometric"),
            out={})

    def prelude(self, ctx):
        index = ctx.load_annotations(ctx.state.ann_path)
        ctx.boxes_for_image = ctx.tr.wrap(index.boxes_for_image, "ingest.boxes_for_image")
        ctx.tr.count("ingest.load_annotations.records", len(index.annotations))
        ctx.tr.count("ingest.bytes_read", ctx.state.ann_bytes)

    def item(self, ctx, i):
        tr, rng = ctx.tr, ctx.rng
        samples = []
        for k in range(4):
            img = (4 * i + k) % self.pool + 1
            labels = ctx.boxes_for_image(img)
            samples.append(ctx.sample(ctx.load_image(ctx.state.paths[img]), labels))
            tr.count("ingest.bytes_read", ctx.state.sizes[img])
            tr.count("augment.labels_in", len(labels))
        out = ctx.mosaic(samples, self.side, self.side, rng)
        out = ctx.photometric(
            out,
            brightness=rng.uniform(-self.brightness, self.brightness),
            contrast=rng.uniform(1.0 - self.contrast, 1.0 + self.contrast),
            hue=rng.uniform(-self.hue, self.hue),
            saturation=rng.uniform(1.0 - self.saturation, 1.0 + self.saturation),
            noise_sigma=self.noise_sigma, rng=rng)
        out = ctx.geometric(out, "hflip")
        out = ctx.geometric(out, "scale", k=float(rng.uniform(0.75, 1.25)))
        tr.count("augment.labels_out", len(out.labels))
        tr.count("augment.pixels_out", out.width * out.height)
        ctx.out[i] = out

    def settle(self, ctx, i):
        """Range checks, then the bytes against the first pass of this run;
        the sample is dropped so a pass holds one output image at a time."""
        sample = ctx.out.pop(i)
        digest = oracles.sample_digest(sample)
        try:
            oracles.check_augmented(sample, ctx.state.digests.setdefault(i, digest))
        except CheckFailed as exc:
            exc.item = i
            raise

    def digest(self, ctx):
        return repr(sorted(ctx.state.digests.items()))

    def check(self, ctx):
        if len(ctx.state.digests) != self.items_per_pass:
            raise CheckFailed(f"{len(ctx.state.digests)} of {self.items_per_pass} "
                              "samples were checked")


class TrainStep(Workload):
    """A training step: anchors from k-means plus a GA in the prelude, then
    per mini-batch anchor assignment, decode at positives, CIoU loss with
    gradient, label smoothing, feature-map ops, CmBN and the LR schedule."""

    name = "train-step"
    items_per_pass = 40
    prelude_kernel = "numpy"  # k-means and GA fitness work on (15000, 9) arrays
    images = 500
    truths_per_image = 30
    batch_images = 4
    side = 416
    categories = tuple(range(1, 11))
    cmbn_minibatches = 4
    ga_population, ga_generations = 10, 30
    recall_threshold = decode.DEFAULT_ASSIGN_IOU_THRESHOLD
    feature_shape = (64, 13, 13)
    activations = 256
    max_positives = 9 * 30 * 4
    grads_checked = 50  # positives re-checked against finite differences

    def setup(self, seed: int, workdir: Path):
        rng = _rng(seed, self.name)
        k = self.side / 608
        centers = np.array(COCO_ANCHORS_608, dtype=float) * k
        truths = {}
        for img in range(1, self.images + 1):
            labeled = []
            # shape clusters in turn, so every mini-batch holds the same mix
            for t in range(self.truths_per_image):
                w, h = centers[t % len(centers)] * np.exp(rng.normal(0.0, 0.25, 2))
                w, h = min(w, self.side - 1.0), min(h, self.side - 1.0)
                x, y = rng.uniform(0, self.side - w), rng.uniform(0, self.side - h)
                labeled.append((Box(x, y, x + w, y + h), int(rng.choice(self.categories))))
            truths[img] = labeled
        ann_path = workdir / "train_annotations.json"
        ann_bytes = _write_json(ann_path, _coco_annotations(
            truths, (self.side, self.side), self.categories))
        n = self.items_per_pass
        c, h, w = self.feature_shape
        return SimpleNamespace(
            seed=seed, ann_path=ann_path, ann_bytes=ann_bytes,
            # raw head outputs at positive cells; t_w and t_h are offsets
            # added to the truth's log size ratio
            head_noise=(rng.normal(0.0, 1.0, (n, self.max_positives, 5 + len(self.categories)))
                        * ([1.0, 1.0, 0.2, 0.2] + [1.0] * (1 + len(self.categories)))).tolist(),
            features=rng.normal(0.0, 1.0, (n, c, h, w)),
            attention=rng.normal(0.0, 2.0, (n, c, h, w)),
            act_inputs=rng.normal(0.0, 3.0, (n, self.activations)).tolist())

    def warm(self, state):
        featuremap.spp(state.features[0])
        featuremap.activation(0.5)
        losses.box_loss(geometry.CenterBox(5, 5, 4, 3), geometry.CenterBox(6, 5, 4, 4))

    def begin(self, state, tr):
        wrap = tr.wrap
        return SimpleNamespace(
            state=state, tr=tr, rng=_rng(state.seed, self.name, 1),
            load_annotations=wrap(ingest.load_annotations, "ingest.load_annotations"),
            kmeans=wrap(evolve.kmeans_anchors, "evolve.kmeans_anchors"),
            anchor_recall=wrap(evolve.anchor_recall, "evolve.anchor_recall"),
            evolve=wrap(evolve.evolve, "evolve.evolve"),
            label_smooth=wrap(losses.label_smooth, "losses.label_smooth"),
            spp=wrap(featuremap.spp, "featuremap.spp"),
            dropblock=wrap(featuremap.dropblock_mask, "featuremap.dropblock_mask"),
            sam=wrap(featuremap.pointwise_sam, "featuremap.pointwise_sam"),
            cosine_lr=wrap(trainsched.cosine_lr, "trainsched.cosine_lr"),
            losses={}, cmbn={}, avg_iou={})

    def prelude(self, ctx):
        tr = ctx.tr
        index = ctx.load_annotations(ctx.state.ann_path)
        tr.count("ingest.load_annotations.records", len(index.annotations))
        tr.count("ingest.bytes_read", ctx.state.ann_bytes)
        shapes = np.array([a.bbox[2:] for a in index.annotations], dtype=float)
        km = ctx.kmeans(shapes, 9, rng=_rng(ctx.state.seed, self.name, 2))
        tr.count("evolve.kmeans_iterations", len(km.distance_per_iteration))
        anchors, recall = self._evolve_anchors(ctx, shapes, km.anchors)
        ctx.shapes, ctx.anchors, ctx.recall = shapes, anchors, recall
        ctx.cfgs = [DecodeConfig(self.side // stride, self.side // stride, float(stride),
                                 tuple(anchors[3 * level:3 * level + 3]))
                    for level, stride in enumerate((8, 16, 32))]
        ctx.truths = tr.wrap(index.truths_by_image, "ingest.truths_by_image")()
        ctx.acc = trainsched.CmBNAccumulator(self.cmbn_minibatches)
        ctx.cmbn_update = tr.wrap(ctx.acc.update, "trainsched.cmbn_update")

    def _evolve_anchors(self, ctx, shapes, seed_anchors):
        """`optimize-anchors --evolve`: recall at the assignment threshold
        with mean best IoU as a tiebreaker, never worse than the seed."""
        thr, k = self.recall_threshold, len(seed_anchors)
        entries = {}
        for i, a in enumerate(seed_anchors):
            entries[f"w{i}"] = evolve.HyperEntry(a.w, 1.0, 2.0 * self.side, 0.1)
            entries[f"h{i}"] = evolve.HyperEntry(a.h, 1.0, 2.0 * self.side, 0.1)

        def fitness(vec):
            recall, mean_iou = ctx.anchor_recall(
                shapes, [Anchor(vec[f"w{i}"], vec[f"h{i}"]) for i in range(k)], thr)
            return recall + 1e-6 * mean_iou

        cfg = evolve.GAConfig(population=self.ga_population,
                              generations=self.ga_generations, seed=ctx.state.seed)
        best, _history = ctx.evolve(evolve.HyperVector(entries), fitness, cfg)
        anchors = sorted((Anchor(best[f"w{i}"], best[f"h{i}"]) for i in range(k)),
                         key=lambda a: a.w * a.h)
        scores = ctx.anchor_recall(shapes, anchors, thr)
        seed_scores = ctx.anchor_recall(shapes, seed_anchors, thr)
        if scores < seed_scores:
            anchors, scores = list(seed_anchors), seed_scores
        return anchors, scores[0]

    def item(self, ctx, b):
        tr, state = ctx.tr, ctx.state
        first = b * self.batch_images + 1
        labeled = [bc for img in range(first, first + self.batch_images)
                   for bc in ctx.truths[img]]
        with tr.span("geometry.to_center", calls=len(labeled)):
            centers = [box.to_center() for box, _ in labeled]
        positives = []  # (scale config, cell, anchor slot, truth index)
        for cfg in ctx.cfgs:
            with tr.span("decode.assign_anchors", calls=len(centers)):
                assigned = [decode.assign_anchors(c, cfg) for c in centers]
            positives += [(cfg, cell, a, j) for j, cells in enumerate(assigned)
                          for cell, a in cells]
        n = len(positives)
        tr.count("decode.positives", n)
        truths = [centers[p[3]] for p in positives]
        truth_boxes = [labeled[p[3]][0] for p in positives]
        # the head's raw outputs at each positive cell, as decode's input type
        with tr.span("decode.RawPrediction", calls=n):
            raws = [RawPrediction(t[0], t[1], math.log(truth.w / cfg.anchors[a].w) + t[2],
                                  math.log(truth.h / cfg.anchors[a].h) + t[3], t[4],
                                  tuple(t[5:]), cell, a)
                    for (cfg, cell, a, _), truth, t in zip(positives, truths,
                                                           state.head_noise[b])]
        with tr.span("decode.decode", calls=n):
            preds = [decode.decode(r, p[0]).box for r, p in zip(raws, positives)]
        with tr.span("losses.box_loss", calls=n):
            results = [losses.box_loss(p, t, "ciou") for p, t in zip(preds, truths)]
        with tr.span("geometry.to_corner", calls=n):
            corners = [p.to_corner() for p in preds]
        with tr.span("geometry.iou", calls=n):
            iou_sum = sum(map(geometry.iou, corners, truth_boxes))
        onehot = np.zeros((n, len(self.categories)))
        onehot[np.arange(n), [labeled[p[3]][1] - 1 for p in positives]] = 1.0
        ctx.label_smooth(onehot, 0.1)
        f = state.features[b]
        ctx.spp(f)
        ctx.dropblock(f.shape[1], f.shape[2], 3, 0.9, ctx.rng)
        attended = ctx.sam(f, state.attention[b])
        with tr.span("featuremap.activation", calls=len(state.act_inputs[b])):
            for x in state.act_inputs[b]:
                featuremap.activation(x, "mish")
        minibatch = attended.reshape(f.shape[0], -1).T
        stats = ctx.cmbn_update(minibatch)
        ctx.cosine_lr(b, self.items_per_pass, trainsched.DEFAULT_INITIAL_LR)
        ctx.losses[b] = list(zip(preds, truths, results))
        ctx.cmbn[b] = (minibatch, stats)
        ctx.avg_iou[b] = iou_sum / n

    def digest(self, ctx):
        return repr((ctx.anchors, ctx.recall, sorted(ctx.avg_iou.items()),
                     [float(r.value) for b in sorted(ctx.losses) for _, _, r in ctx.losses[b]]))

    def check(self, ctx):
        state = ctx.state
        pairs = [(b, pred, truth, res) for b in sorted(ctx.losses)
                 for pred, truth, res in ctx.losses[b]]
        pick = _rng(state.seed, self.name, 3).choice(
            len(pairs), min(self.grads_checked, len(pairs)), replace=False)
        for j in sorted(pick):
            b, pred, truth, res = pairs[j]
            try:
                oracles.check_box_loss((pred.x_c, pred.y_c, pred.w, pred.h),
                                       (truth.x_c, truth.y_c, truth.w, truth.h),
                                       res.value, res.grad)
            except CheckFailed as exc:
                exc.item = b
                raise
        m = self.cmbn_minibatches
        for last in range(m - 1, self.items_per_pass, m):
            batch = [ctx.cmbn[b][0] for b in range(last - m + 1, last + 1)]
            stats = ctx.cmbn[last][1]
            try:
                oracles.check_cmbn(batch, stats.mean, stats.var)
            except CheckFailed as exc:
                exc.item = last
                raise
        oracles.check_recall(ctx.recall, ctx.shapes,
                             [(a.w, a.h) for a in ctx.anchors], self.recall_threshold)


WORKLOADS = {wl.name: wl for wl in (ValDecode(), CrowdEval(), TrainLoader(), TrainStep())}
