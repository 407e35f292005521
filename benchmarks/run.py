#!/usr/bin/env python3
"""detbag benchmark: four seeded, single-process, closed-loop workloads
with outputs checked against independent references.

Run one workload (the last stdout line is the JSON result):

    python3 benchmarks/run.py --workload val-decode --seed 0 --seconds 25 --trace 0

Run every workload, each in a fresh process, untraced then traced, and
print a table of the end-to-end metrics and the tracing overhead:

    python3 benchmarks/run.py --seed 0

See benchmarks/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import os

# one caller, no hidden parallelism: cap BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from detbench import hostspeed  # noqa: E402  (this file's directory is on sys.path)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("val-decode", "crowd-eval", "train-loader", "train-step")
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_ITEMS = 100  # so that at least 10 item latencies lie beyond p90
MIN_COVERAGE = 0.9
DEFAULT_SECONDS = 25

END_TO_END = {"items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "<span>.calls" / "<span>.busy_s" / "<span>.self_s"
# come from spans, everything else from counters or the run itself
PER_LAYER = {
    "decode.decode.calls": "count", "decode.decode.busy_s": "s",
    "decode.assign_anchors.calls": "count", "decode.assign_anchors.busy_s": "s",
    "decode.positives": "count", "decode.RawPrediction.busy_s": "s",
    "nms.diou_nms.calls": "count", "nms.diou_nms.busy_s": "s",
    "nms.soft_nms.calls": "count", "nms.soft_nms.busy_s": "s",
    "nms.boxes_in": "count", "nms.boxes_out": "count", "nms.keep_ratio": "ratio",
    "evalap.evaluate.busy_s": "s", "evalap.dets_in": "count", "evalap.truths_in": "count",
    "evalap.parse_coco_detections.busy_s": "s",
    "evalap.parse_coco_detections.records": "count",
    "ingest.load_annotations.busy_s": "s", "ingest.load_annotations.records": "count",
    "ingest.load_image.calls": "count", "ingest.load_image.busy_s": "s",
    "ingest.bytes_read": "B",
    "ingest.boxes_for_image.calls": "count", "ingest.boxes_for_image.busy_s": "s",
    "ingest.truths_by_image.busy_s": "s",
    "augment.Sample.busy_s": "s",
    "augment.mosaic.busy_s": "s", "augment.photometric.busy_s": "s",
    "augment.geometric.busy_s": "s",
    "augment.labels_in": "count", "augment.labels_out": "count",
    "augment.pixels_out": "count",
    "losses.box_loss.calls": "count", "losses.box_loss.busy_s": "s",
    "losses.label_smooth.busy_s": "s",
    "geometry.iou.calls": "count", "geometry.iou.busy_s": "s",
    "featuremap.spp.busy_s": "s", "featuremap.dropblock_mask.busy_s": "s",
    "featuremap.pointwise_sam.busy_s": "s",
    "featuremap.activation.calls": "count", "featuremap.activation.busy_s": "s",
    "trainsched.cmbn_update.busy_s": "s", "trainsched.cosine_lr.busy_s": "s",
    "evolve.kmeans_anchors.busy_s": "s", "evolve.kmeans_iterations": "count",
    "evolve.anchor_recall.calls": "count", "evolve.anchor_recall.busy_s": "s",
    "evolve.evolve.self_s": "s",
    "trace.coverage_min": "ratio", "trace.overhead_frac": "ratio",
}


def _import_library():
    """Put the checkout's src/ first on the path; refuse any other detbag."""
    src = ROOT / "src"
    if not (src / "detbag" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'detbag'} not found; run from a detbag checkout")
    sys.path.insert(0, str(src))
    import detbag
    if Path(detbag.__file__).resolve().parent != (src / "detbag").resolve():
        sys.exit(f"error: imported detbag from {detbag.__file__}, not {src}")


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "commit": git_commit()}


def run_pass(wl, state, tr, calibrate):
    """One timed phase. Only prelude, items and finalize are inside the
    clock. The cyclic garbage collector is paused for the pass (detbag
    builds no reference cycles, so nothing accumulates) and run between
    passes instead, which keeps its pauses out of item latencies."""
    ctx = wl.begin(state, tr)
    gc.collect()
    gc.disable()
    try:
        return _timed_phase(wl, ctx, tr, calibrate), ctx
    finally:
        gc.enable()


def _timed_phase(wl, ctx, tr, calibrate):
    """Times each segment raw, and scaled by the host-speed calibrations
    taken just before and just after it."""
    clock = time.perf_counter
    segments, errors = [], []  # (raw s, scaled s) per segment
    before = calibrate()

    def timed(kind, fn, *args):
        nonlocal before
        t0 = clock()
        try:
            fn(*args)
        finally:
            seconds = clock() - t0
            after = calibrate()
            segments.append((seconds, hostspeed.scaled(seconds, before, after, kind)))
            before = after

    tr.item = "prelude"
    timed(wl.prelude_kernel, wl.prelude, ctx)
    for i in range(wl.items_per_pass):
        tr.item = i
        try:
            timed(wl.host_kernel, wl.item, ctx, i)
        except Exception as exc:  # an op that raises counts as failed, the loop goes on
            errors.append(f"item {i}: {exc!r}")
        if not errors:
            wl.settle(ctx, i)
    tr.item = "finalize"
    if errors:
        segments.append((0.0, 0.0))
    else:
        timed(wl.host_kernel, wl.finalize, ctx)
    (pre, pre_s), *items, (fin, fin_s) = segments
    return {"raw": {"prelude": pre, "items": [r for r, _ in items], "finalize": fin},
            "scaled": {"prelude": pre_s, "items": [s for _, s in items], "finalize": fin_s},
            "failed": len(errors), "errors": errors}


def items_per_s(timed: dict) -> float:
    """Items completed over the wall time of a whole timed phase."""
    return len(timed["items"]) / (timed["prelude"] + sum(timed["items"]) + timed["finalize"])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def layer_values(summary: dict, coverage_min: float) -> dict:
    calls, busy, self_s, counts = (summary["calls"], summary["busy_s"],
                                   summary["self_s"], summary["counts"])
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(span, 0)
        elif field == "busy_s":
            out[name] = busy.get(span, 0.0)
        elif field == "self_s":
            out[name] = self_s.get(span, 0.0)
        else:
            out[name] = counts.get(name, 0)
    boxes_in = counts.get("nms.boxes_in", 0)
    out["nms.keep_ratio"] = counts.get("nms.boxes_out", 0) / boxes_in if boxes_in else 0.0
    out["trace.coverage_min"] = coverage_min
    return out


def run_workload(args) -> int:
    from detbench.oracles import CheckFailed
    from detbench.spans import Tracer
    from detbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    calibrate = hostspeed.Calibrator().sample
    meta = metadata(args)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir()
        setups, state = [], None  # (raw s, scaled s) per set-up
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            before = calibrate()
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir)
            wl.warm(state)
            seconds = time.perf_counter() - t0
            setups.append((seconds, hostspeed.scaled(seconds, before, calibrate(),
                                                     wl.host_kernel)))

        passes, first_ctx, digests, problem = [], None, set(), None
        traced_summaries, span_dump = [], None
        # a traced run alternates traced and untraced passes, starting traced,
        # so it holds at least two traced ones whose counts can be compared
        start = time.perf_counter()
        while not problem:
            elapsed = time.perf_counter() - start
            done = sum(len(p["raw"]["items"]) for p in passes if not p["traced"])
            if (len(passes) >= MIN_PASSES and (done >= MIN_ITEMS or args.trace)
                    and elapsed * (1 + 1 / len(passes)) > args.seconds):
                break  # another pass of average length would overrun
            tr = Tracer(enabled=bool(args.trace) and len(passes) % 2 == 0)
            try:
                times, ctx = run_pass(wl, state, tr, calibrate)
            except CheckFailed as exc:
                problem = f"check failed: workload {wl.name}, item {exc.item}: {exc}"
                break
            times["traced"] = tr.enabled
            passes.append(times)
            if times["failed"]:
                problem = f"{wl.name}: {times['failed']} items raised: {times['errors'][0]}"
                break
            digests.add(wl.digest(ctx))
            if first_ctx is None:
                first_ctx = ctx
            if tr.enabled:
                summary = tr.summary()
                top = summary["top_level_s"]
                cover = min(top.get(i, 0.0) / s for i, s in enumerate(times["raw"]["items"]))
                traced_summaries.append((summary, cover))
                if span_dump is None:
                    span_dump = tr
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if not problem and len(digests) != 1:
            problem = f"check failed: workload {wl.name}: passes with one seed disagree"
        if not problem:
            try:
                wl.check(first_ctx)
            except CheckFailed as exc:
                problem = f"check failed: workload {wl.name}, item {exc.item}: {exc}"

        attempted = sum(len(p["raw"]["items"]) for p in passes)
        failed = sum(p["failed"] for p in passes)
        untraced = [p for p in passes if not p["traced"]]
        metrics, units = {}, END_TO_END
        if not problem and args.trace:
            values = [layer_values(s, c) for s, c in traced_summaries]
            for name, unit in PER_LAYER.items():
                series = [v[name] for v in values]
                if unit == "count" or unit == "B":
                    if len(set(series)) != 1 and not problem:
                        problem = f"{wl.name}: count {name} differs between passes: {series}"
                    metrics[name] = series[0]
                elif name == "trace.coverage_min":
                    metrics[name] = min(series)
                else:
                    metrics[name] = statistics.median(series)
            traced = [p for p in passes if p["traced"]]
            metrics["trace.overhead_frac"] = (
                statistics.median(items_per_s(p["scaled"]) for p in untraced)
                / statistics.median(items_per_s(p["scaled"]) for p in traced) - 1.0)
            if metrics["trace.coverage_min"] < MIN_COVERAGE and not problem:
                problem = (f"{wl.name}: top-level spans cover only "
                           f"{metrics['trace.coverage_min']:.3f} of an item")
            span_dump.write_jsonl(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl")
            units = PER_LAYER
        elif not problem:
            views = {}
            for view in ("scaled", "raw"):
                items = [s for p in untraced for s in p[view]["items"]]
                views[view] = {
                    "items_per_s": statistics.median(items_per_s(p[view]) for p in untraced),
                    "item_ms_p50": 1e3 * percentile(items, 50),
                    "item_ms_p90": 1e3 * percentile(items, 90),
                    "setup_s": statistics.median(s[view == "scaled"] for s in setups),
                    "peak_rss_mb": peak_rss_mb}
            metrics = views["scaled"]
            print(f"{wl.name}: {len(items)} items in {len(untraced)} passes; "
                  f"ops_failed_frac {failed / max(attempted, 1)}; unscaled "
                  + ", ".join(f"{k} {v:.4g}" for k, v in views["raw"].items()))
        if problem:
            print(problem, file=sys.stderr)
        print("no layer waits on another: each workload has one caller, so no "
              "wait metrics are reported")
        result = {"correct": problem is None, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"meta": meta, **result, "setups": setups,
                        "passes": [{k: p[k] for k in ("traced", "raw", "scaled")}
                                   for p in passes]}, indent=1))
        print(json.dumps(meta))
        print(json.dumps(result))
        return 0 if problem is None else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status, rows = 0, []
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr)
            try:
                results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            except (IndexError, json.JSONDecodeError):
                results.append(None)
        rows.append((name, *results))

    print(f"{'workload':<13}{'items':>6}{'items_per_s':>12}{'item_ms_p50':>12}"
          f"{'item_ms_p90':>12}{'setup_s':>8}{'peak_rss_mb':>12}{'ops_failed_frac':>16}"
          f"{'trace.overhead_frac':>20}{'trace.coverage_min':>19}")
    for name, plain, traced in rows:
        if plain is None or traced is None or not (plain["metrics"] and traced["metrics"]):
            print(f"{name:<13} no result (see stderr)")
            status = 1
            continue
        m, t = plain["metrics"], traced["metrics"]
        print(f"{name:<13}{plain['attempted']:>6}{m['items_per_s']['value']:>12.3f}"
              f"{m['item_ms_p50']['value']:>12.2f}{m['item_ms_p90']['value']:>12.2f}"
              f"{m['setup_s']['value']:>8.3f}{m['peak_rss_mb']['value']:>12.1f}"
              f"{plain['failed'] / plain['attempted']:>16.3f}"
              f"{t['trace.overhead_frac']['value']:>20.3f}"
              f"{t['trace.coverage_min']['value']:>19.3f}")
        if not (plain["correct"] and traced["correct"]):
            print(f"{name:<13} CHECK FAILED (see stderr)")
            status = 1
    print("units: items count, items_per_s 1/s, item_ms_p50/p90 ms, setup_s s, "
          "peak_rss_mb MB, ops_failed_frac and trace.* ratios; times are host-speed scaled")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
