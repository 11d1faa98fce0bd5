"""The traced run: per-layer metrics named ``<module>.<metric>``.

Each operation runs twice in one process: untraced, and right after it
traced.  Both are the same calls (ops.train_op, ops.classify_op,
ops.detect_op) into the program's own ``train_pipeline``, ``run_classify`` and ``run_detect``; for
the traced one, :func:`tracing` puts a timed stand-in in place of every
function in ``LAYERS``, where the program looks it up at call time.  A
layer's time excludes the timed calls it makes, so each of ``train_pipeline``,
``run_classify`` and ``run_detect`` keeps the time of its own code (for
``run_detect``, the heat-map loop), and the op itself keeps what no span
covers (file reads) as ``remainder``.  The spans of one op therefore add up
to its traced wall time, which is reported beside the untraced time, and
the difference as tracing overhead.

The untraced classify and detect use the bundle reloaded with
``load_bundle``; the traced ones use the trained model in memory, so equal
outputs also show that a bundle round trip changes nothing.  Training stage
times also come from the gaps between ``train_pipeline``'s ``log``
callbacks in the untraced run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import evrect.pca
import evrect.pipeline
import ops
import verify
from evrect.kdtree import VirtualProjection
from evrect.pipeline import TrainedPipeline, load_bundle
from workloads import WORKLOADS, csv_path, truth_path

# (owner, attribute, layer): every function timed, by where it is looked up
LAYERS = (
    (ops, "parse_csv", "events.parse"),
    (evrect.pipeline, "cascade", "filtering"),
    (evrect.pipeline, "extract_stream_descriptors", "rect"),
    (TrainedPipeline, "project_features", "pca.project"),
    (VirtualProjection, "restrict", "pca.project"),
    (evrect.pca, "project", "pca.project"),
    (TrainedPipeline, "descend_leaves", "kdtree.descend"),
    (evrect.pipeline, "descend_batch", "kdtree.descend"),
    (evrect.pipeline, "build", "kdtree.build"),
    (evrect.pipeline, "harvest_dims", "kdtree.build"),
    (evrect.pipeline, "pack", "kdtree.pack"),
    (evrect.pipeline, "learn", "dictionary.learn"),
    (evrect.pipeline, "windows_from_leaves", "dictionary.histograms"),
    (TrainedPipeline, "window_scores", "classifier.score"),
    (evrect.pipeline, "svm_train", "classifier.svm_train"),
    (evrect.pipeline, "classify_batch", "classifier.classify_batch"),
    (evrect.pipeline, "export_stream", "classifier.export"),
    (evrect.pipeline, "compute_stats", "detector.landmarks"),
    (evrect.pipeline, "select_landmarks", "detector.landmarks"),
    (ops, "evaluate", "detector.evaluate"),
    (ops, "train_pipeline", "pipeline.train_pipeline"),
    (ops, "run_classify", "pipeline.run_classify"),
    (ops, "run_detect", "pipeline.run_detect"),
    (ops, "save_bundle", "bundle.save"),
    (ops, "format_classify", "format"),
    (ops, "format_detect", "format"),
)

# train_pipeline's log lines that close each stage, by a phrase they contain
_LOG_MARKS = {"filtered": "filter", "sampled": "sample", "dictionary of": "learn",
              "tree depth": "build", "training histograms": "histogram", "training accuracy": "svm"}


@contextmanager
def tracing(spans: ops.Spans):
    """Every function in ``LAYERS`` timed into ``spans``; restored on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in LAYERS]
    try:
        for owner, attr, name in LAYERS:
            setattr(owner, attr, spans.wrap(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _stage_gaps(start: float, marks: list[tuple[float, str]]) -> dict[str, float]:
    gaps = {}
    prev = start
    for t, msg in marks:
        for phrase, name in _LOG_MARKS.items():
            if phrase in msg:
                gaps[name] = t - prev
                prev = t
    return gaps


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    config = wl.config
    wd = args.workdir
    train_paths = [(s.label, csv_path(wd, s)) for s in wl.train]
    errors: list[str] = []

    # ---- each op untraced and then traced, back to back, so that both see
    # the machine in the same state; classify and detect untraced with the
    # reloaded bundle, traced with the model in memory
    spans = ops.Spans()

    def traced(op, *op_args):
        with tracing(spans):
            return spans.wrap("remainder", op)(*op_args)

    untraced = dict.fromkeys(("train", "classify", "detect"), 0.0)
    layers = {}
    marks: list[tuple[float, str]] = []
    t = time.perf_counter()
    tp_mem, blob = ops.train_op(config, train_paths, wd / "model.evb",
                                log=lambda msg: marks.append((time.perf_counter(), msg)))
    untraced["train"] = time.perf_counter() - t
    gaps = _stage_gaps(t, marks)
    _, traced_blob = traced(ops.train_op, config, train_paths, wd / "model.evb")
    layers["train"] = spans.take()
    if traced_blob != blob:
        errors.append("trace: the traced training gives another bundle")
    t = time.perf_counter()
    tp = load_bundle(blob)
    load_s = time.perf_counter() - t

    classified, detected = {}, {}
    n_cls = 0
    for scene in wl.heldout:
        t = time.perf_counter()
        n, classified[scene.name] = ops.classify_op(tp, csv_path(wd, scene))
        untraced["classify"] += time.perf_counter() - t
        n_cls += n
        _, results = traced(ops.classify_op, tp_mem, csv_path(wd, scene))
        if not verify.same_results(results, classified[scene.name]):
            errors.append(f"{scene.name}: classify with the trained model differs from the reloaded bundle's")
    layers["classify"] = spans.take()
    for scene in wl.detect_scenes:
        t = time.perf_counter()
        _, rows, metrics = ops.detect_op(tp, csv_path(wd, scene), truth_path(wd, scene), wl.target)
        untraced["detect"] += time.perf_counter() - t
        detected[scene.name] = (rows, metrics)
        _, traced_rows, _ = traced(ops.detect_op, tp_mem, csv_path(wd, scene), truth_path(wd, scene),
                                   wl.target)
        if traced_rows != rows:
            errors.append(f"{scene.name}: detect with the trained model differs from the reloaded bundle's")
    layers["detect"] = spans.take()

    check_errors, figures, counts = verify.verify_workload(tp, tp_mem, wl, args.seed, wd, classified, detected)
    errors += check_errors

    us = 1e6
    sc, sd, st = layers["classify"], layers["detect"], layers["train"]
    kept, windows = counts["kept_events"], counts["windows"]
    hits = sum(r.landmark_hits for rows, _ in detected.values() for r in rows)
    m: dict[str, float] = {}
    m["events.parse_us_per_event"] = sc["events.parse"] / n_cls * us
    m["filtering.us_per_event"] = sc["filtering"] / n_cls * us
    m["filtering.kept_events"] = kept
    m["filtering.refractory_rejects"] = counts["refractory_rejects"]
    m["filtering.noise_rejects"] = counts["noise_rejects"]
    m["rect.us_per_event"] = sc["rect"] / kept * us
    m["pca.project_us_per_event"] = sc["pca.project"] / kept * us
    m["kdtree.descend_us_per_event"] = sc["kdtree.descend"] / kept * us
    m["kdtree.build_s"] = st["kdtree.build"]
    m["kdtree.leaves_used"] = counts["leaves_used"]
    m["kdtree.nn_agreement"] = counts["nn_agreement"]
    m["pipeline.windows"] = windows
    m["pipeline.trailing_events_dropped"] = counts["trailing_events_dropped"]
    m["pipeline.sample_s"] = gaps["sample"]
    m["pipeline.histogram_s"] = gaps["histogram"]
    m["dictionary.learn_s"] = st["dictionary.learn"]
    m["dictionary.kmeans_iterations"] = tp.stats["kmeans_iterations"]
    m["classifier.score_us_per_window"] = sc["classifier.score"] / windows * us
    m["classifier.svm_train_s"] = st["classifier.svm_train"]
    m["detector.us_per_hit"] = sd["pipeline.run_detect"] / max(hits, 1) * us
    m["detector.landmark_hits"] = hits
    m["bundle.load_s"] = load_s
    m["bundle.save_s"] = st["bundle.save"]
    m["bundle.bytes"] = len(blob)
    for op, spent in layers.items():
        m[f"trace.{op}_untraced_s"] = untraced[op]
        m[f"trace.{op}_layers_s"] = sum(spent.values())
        m[f"trace.{op}_overhead_s"] = sum(spent.values()) - untraced[op]
    layers["train_log_gaps"] = gaps
    attempted = 2 * (1 + len(wl.heldout) + len(wl.detect_scenes))
    return {"metrics": m, "layers": layers, "attempted": attempted, "failed": 0,
            "errors": errors, "figures": figures}
