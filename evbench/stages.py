"""The stages of one benchmark run, each in its own process (see run.py).

    python3 evbench/stages.py <stage> --workload W --seed N --workdir D [--budget S] [--t0 T]

- prepare: writes the workload's seeded recordings as CSV files.
- measure: a train op, which writes the bundle; then, for ``--budget``
  seconds from its start, train ops and rounds of classify and detect ops
  on the reloaded bundle, so that both kinds are spread over the whole
  time and train ops take ``TRAIN_SHARE`` of it; then the checks.
- setup: the cold set-up (interpreter start, ``import evrect``,
  ``load_bundle`` of the bundle the measure stage wrote), timed from
  ``--t0``, the parent's clock reading just before it started this process.
- trace: one traced run; see traced.py.

Each stage writes ``<stage>.json`` into the work directory.  Only the
standard library is imported before the stage starts, so the set-up is a
cold one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


TRAIN_SHARE = 0.45   # of the measured time, spent in train ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage_prepare(args) -> dict:
    from workloads import WORKLOADS, prepare

    return {"events": prepare(WORKLOADS[args.workload], args.seed, args.workdir)}


def stage_measure(args) -> dict:
    import ops
    import verify
    from evrect.pipeline import load_bundle
    from workloads import WORKLOADS, csv_path, truth_path

    wl = WORKLOADS[args.workload]
    wd = args.workdir
    paths = [(s.label, csv_path(wd, s)) for s in wl.train]
    bundle_path = wd / "model.evb"

    # the first train op writes the bundle that every classify and detect op uses
    t = time.perf_counter()
    model, blob = ops.train_op(wl.config, paths, bundle_path)
    seconds = {("train", ""): [time.perf_counter() - t]}
    spent = {"train": seconds["train", ""][0], "infer": 0.0}
    tp = load_bundle(bundle_path.read_bytes())
    errors = []
    if bundle_path.read_bytes() != blob:
        errors.append("train: written bundle differs from save_bundle's bytes")

    # one round: every op, as (kind, recording, callable returning (raw events, outputs))
    todo = [("classify", s.name, lambda s=s: ops.classify_op(tp, csv_path(wd, s))) for s in wl.heldout]
    todo += [("detect", s.name, lambda s=s: ops.detect_op(tp, csv_path(wd, s), truth_path(wd, s), wl.target))
             for s in wl.detect_scenes]
    seconds.update({(kind, name): [] for kind, name, _ in todo})
    events = {}
    attempted, failed = 1, 0
    first = peak = None
    while first is None or time.perf_counter() - t < args.budget:
        if first is not None and spent["train"] < TRAIN_SHARE * (spent["train"] + spent["infer"]):
            attempted += 1
            t_op = time.perf_counter()
            try:
                _, again = ops.train_op(wl.config, paths, bundle_path)
            except Exception:
                traceback.print_exc()
                failed += 1
                again = None
            elapsed = time.perf_counter() - t_op
            spent["train"] += elapsed
            if again is not None:
                seconds["train", ""].append(elapsed)
                if again != blob:
                    errors.append("train: bundle bytes differ between two train operations")
            continue
        outputs = {}
        for kind, name, op in todo:
            attempted += 1
            t_op = time.perf_counter()
            try:
                events[name], *out = op()
            except Exception:
                traceback.print_exc()
                failed += 1
                out = None
            elapsed = time.perf_counter() - t_op
            spent["infer"] += elapsed
            if out is not None:
                seconds[kind, name].append(elapsed)
                outputs[kind, name] = out
        if first is None:
            first = outputs
            peak = peak_rss_mb()  # one train op and one round: later rounds repeat the same work
        elif not all(verify.same_outputs(first.get(k, v), v) for k, v in outputs.items()):
            errors.append("infer: outputs differ between two rounds")

    classified = {name: out[0] for (kind, name), out in first.items() if kind == "classify"}
    detected = {name: tuple(out) for (kind, name), out in first.items() if kind == "detect"}
    check_errors, figures, _ = verify.verify_workload(tp, model, wl, args.seed, wd, classified, detected)
    errors += check_errors
    return {"train_s": statistics.fmean(seconds["train", ""]),
            "classify_events_per_s": _rate(events, seconds, "classify"),
            "detect_events_per_s": _rate(events, seconds, "detect"),
            "op_seconds": {f"{kind} {name}".strip(): ts for (kind, name), ts in seconds.items()},
            "attempted": attempted, "failed": failed, "peak_rss_mb": peak, "errors": errors,
            "figures": figures}


def _rate(events: dict, seconds: dict, kind: str) -> float:
    """Raw events over wall time, summed over every op of the kind that ran."""
    n = sum(events.get(name, 0) * len(ts) for (k, name), ts in seconds.items() if k == kind)
    return n / sum(sum(ts) for (k, _), ts in seconds.items() if k == kind)


def stage_setup(args) -> dict:
    import evrect  # noqa: F401  (the cold import is part of set-up)
    from evrect.pipeline import load_bundle

    load_bundle((args.workdir / "model.evb").read_bytes())
    return {"setup_s": time.perf_counter() - args.t0}


def stage_trace(args) -> dict:
    import traced

    return traced.run(args)


STAGES = {"prepare": stage_prepare, "measure": stage_measure, "setup": stage_setup, "trace": stage_trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stage", choices=sorted(STAGES))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--t0", type=float, default=0.0)
    args = ap.parse_args(argv)
    result = STAGES[args.stage](args)
    (args.workdir / f"{args.stage}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
