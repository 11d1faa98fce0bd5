"""The operations the benchmark times, each done as the ``evrect`` command
does it, through the package's public functions.

- train: ``evrect train`` reads the labelled CSVs, runs ``train_pipeline``
  and writes ``save_bundle``'s bytes.
- classify: ``evrect classify`` parses the CSV, runs ``run_classify`` and
  formats one row per window.
- detect: ``evrect detect --truth`` parses the CSV, runs ``run_detect``,
  formats one row per window and scores the detections with ``evaluate``.

The traced run makes the same calls; :class:`Spans` then times the
functions these operations and the program look up by name at call time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

from evrect.detector import evaluate
from evrect.events import parse_csv
from evrect.pipeline import (
    DetectWindow,
    TrainedPipeline,
    WindowResult,
    run_classify,
    run_detect,
    save_bundle,
    train_pipeline,
)
from evrect.synth import parse_truth_csv


class Spans:
    """Exclusive wall time per layer name.

    ``wrap`` returns a timed stand-in for a function.  A call's time goes to
    its own name less the time of the timed calls it makes, so the spans of
    one outermost call add up to its wall time and nothing is counted twice.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self._inner: list[float] = []   # per open call, the time of its timed callees

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[name] += elapsed - self._inner.pop()
                if self._inner:
                    self._inner[-1] += elapsed

        return timed

    def take(self) -> dict[str, float]:
        """The spans so far (0.0 for a layer never called), which are then cleared."""
        out, self.seconds = self.seconds, defaultdict(float)
        return out


def _format_score(v) -> str:
    return "%.9g" % v if isinstance(v, float) else str(int(v))


def format_classify(class_names, results: list[WindowResult]) -> str:
    lines = ["window_end_timestamp,label," + ",".join(f"score_{n}" for n in class_names)]
    for r in results:
        lines.append(f"{r.t_end},{r.label}," + ",".join(_format_score(v) for v in r.scores.tolist()))
    return "\n".join(lines) + "\n"


def format_detect(rows: list[DetectWindow]) -> str:
    lines = ["window_end_timestamp,x,y,threshold,landmark_hits"]
    for r in rows:
        x = "" if r.x is None else r.x
        y = "" if r.y is None else r.y
        lines.append(f"{r.t_end},{x},{y},{r.threshold},{r.landmark_hits}")
    return "\n".join(lines) + "\n"


def _detections(rows: list[DetectWindow]) -> list[tuple[int, int, int]]:
    return [(r.t_end, r.x, r.y) for r in rows if r.x is not None]


def train_op(config, labeled_paths: list[tuple[str, Path]], out: Path, log=None):
    """Returns (trained pipeline, bundle bytes)."""
    labeled = [(label, parse_csv(path.read_bytes(), config.geometry)) for label, path in labeled_paths]
    tp = train_pipeline(config, labeled, log=log)
    blob = save_bundle(tp)
    out.write_bytes(blob)
    return tp, blob


def classify_op(tp: TrainedPipeline, path: Path):
    """Returns (raw events, window results)."""
    stream = parse_csv(path.read_bytes(), tp.config.geometry)
    results = run_classify(tp, stream)
    format_classify(tp.class_names, results)
    return len(stream), results


def detect_op(tp: TrainedPipeline, path: Path, truth: Path, target: str):
    """Returns (raw events, detect rows, detection metrics)."""
    stream = parse_csv(path.read_bytes(), tp.config.geometry)
    rows = run_detect(tp, stream, target)
    format_detect(rows)
    metrics = evaluate(_detections(rows), parse_truth_csv(truth.read_text()))
    return len(stream), rows, metrics
