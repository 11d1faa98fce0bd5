"""Benchmark of ``evrect`` train, classify and detect on seeded recordings.

    python3 evbench/run.py --workload noisy-hardware --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A run has separate processes (stages.py):

1. prepare: generates the recordings (not timed);
2. measure: train ops and rounds of classify and detect ops, interleaved
   for ``--seconds``, then the correctness checks;
3. setup: one cold set-up, from process start to the end of ``load_bundle``;

or, with ``--trace 1``, one traced process in place of 2 and 3.  Every
child runs with one BLAS thread and without numpy's huge-page advice.
Generated files live in ``.evbench_work/`` and are removed at the end of
the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("noisy-hardware", "train-corpus")
DEADLINE_S = 175.0          # a run must end within 180 s



class StageFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # numpy asks the kernel for 2 MB pages for large arrays, and whether the
    # kernel has them depends on the rest of the host
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def _stage(name: str, args, workdir: Path, started: float, *extra: str) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "stages.py"), name, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), "--t0", repr(t0), *extra]
    remaining = DEADLINE_S - (t0 - started)
    if remaining <= 0:
        raise StageFailed(f"no time left for the {name} stage")
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise StageFailed(f"{name} stage ran past the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise StageFailed(f"{name} stage exited with code {proc.returncode}")
    print(f"stage {name:8s} {time.perf_counter() - t0:6.1f} s")
    return json.loads((workdir / f"{name}.json").read_text())


def _metrics(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, in BENCHMARK.json's order and units; every one
    must be there as a finite number."""
    missing = [m["name"] for m in declared
               if not isinstance(values.get(m["name"]), (int, float)) or not math.isfinite(values[m["name"]])]
    if missing:
        raise StageFailed(f"no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _measure(args, workdir: Path, started: float) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    _stage("prepare", args, workdir, started)
    if args.trace:
        tr = _stage("trace", args, workdir, started)
        for op in ("train", "classify", "detect"):
            layers = tr["metrics"][f"trace.{op}_layers_s"]
            untraced = tr["metrics"][f"trace.{op}_untraced_s"]
            print(f"{op:9s} layers {layers:8.3f} s  untraced {untraced:8.3f} s  "
                  f"tracing overhead {layers - untraced:+.3f} s")
            for name, s in sorted(tr["layers"][op].items(), key=lambda kv: -kv[1]):
                print(f"    {name:26s} {s:8.3f} s")
        print("train stage gaps between log lines: "
              + ", ".join(f"{k} {v:.3f} s" for k, v in tr["layers"]["train_log_gaps"].items()))
        metrics = _metrics(tr["metrics"], declared["per_layer"])
        return {"correct": not tr["errors"], "attempted": tr["attempted"], "failed": tr["failed"],
                "metrics": metrics, "errors": tr["errors"], "figures": tr["figures"]}

    meas = _stage("measure", args, workdir, started, "--budget", str(args.seconds))
    setup = _stage("setup", args, workdir, started)
    print(f"peak RSS after one train op and one round: {meas['peak_rss_mb']:.1f} MB")
    for name, ts in meas["op_seconds"].items():
        print(f"{name:24s} mean {statistics.fmean(ts):8.4f} s over {len(ts)}: "
              + " ".join(f"{t:.4f}" for t in ts))
    values = {
        "setup_s": setup["setup_s"],
        "classify_events_per_s": meas["classify_events_per_s"],
        "detect_events_per_s": meas["detect_events_per_s"],
        "train_s": meas["train_s"],
        "peak_rss_mb": meas["peak_rss_mb"],
    }
    metrics = _metrics(values, declared["end_to_end"])
    return {"correct": not meas["errors"], "attempted": meas["attempted"], "failed": meas["failed"],
            "metrics": metrics, "errors": meas["errors"], "figures": meas["figures"]}


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    workdir = ROOT / ".evbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = _measure(args, workdir, started)
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for err in result.pop("errors"):
        print(f"CHECK FAILED: {err}")
    print("ground truth: " + ", ".join(f"{k} {v:.3f}" for k, v in result.pop("figures").items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
