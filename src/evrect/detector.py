"""Landmark selection and heat-map object localization.

Landmarks are the dictionary features whose target / non-target match
ratio is largest.  Localization keeps a per-pixel count of landmark
hits inside one window and tracks the running maximum; the detection is
the mean of the coordinates that attained the current maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .events import SensorGeometry


@dataclass(frozen=True)
class Box:
    """Inclusive pixel-coordinate bounding box."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def contains(self, x: int, y: int) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True)
class LandmarkStats:
    """Per-feature match counts on target vs non-target events, with ratios."""

    pos_matches: np.ndarray
    neg_matches: np.ndarray
    ratios: np.ndarray


def compute_stats(pos_matches: np.ndarray, neg_matches: np.ndarray) -> LandmarkStats:
    """Score each dictionary feature by its target-selectivity ratio.

    Each count vector is weighted by its share of the total before the
    ratio is taken, so a feature scores high only when it both fires
    often on the target and rarely elsewhere.  Non-target counts of
    zero are lifted to one so every ratio stays finite; positive counts
    pass through untouched, which keeps the ordering of well-supported
    features scale-invariant.
    """
    pos = np.asarray(pos_matches, dtype=np.float64)
    neg = np.asarray(neg_matches, dtype=np.float64)
    if pos.shape != neg.shape or pos.ndim != 1:
        raise DataError("match count vectors must be 1-D and equal length")
    if (pos < 0).any() or (neg < 0).any():
        raise DataError("match counts must be non-negative")
    pos_total = pos.sum()
    if pos_total == 0:
        raise DataError("no target matches: cannot rank features")
    neg_eff = np.where(neg == 0, 1.0, neg)
    beta_pos = pos / pos_total
    beta_neg = neg_eff / neg_eff.sum()
    ratios = (beta_pos * pos) / (beta_neg * neg_eff)
    return LandmarkStats(pos_matches=pos, neg_matches=neg, ratios=ratios)


@dataclass(frozen=True)
class DetectorModel:
    """The selected landmark feature ids, in decreasing-ratio order."""

    landmarks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.landmarks)

    def mask(self, n_features: int) -> np.ndarray:
        out = np.zeros(n_features, dtype=bool)
        out[list(self.landmarks)] = True
        return out


def select_landmarks(stats: LandmarkStats, count: int) -> DetectorModel:
    """Pick the ``count`` features with the largest ratios, ties to lower index."""
    k = len(stats.ratios)
    if not 1 <= count <= k:
        raise DataError(f"landmark count {count} outside [1, {k}]")
    order = np.argsort(-stats.ratios, kind="stable")
    return DetectorModel(landmarks=tuple(int(i) for i in order[:count]))


class HeatMapTracker:
    """Running-max landmark-hit tracker for one classification window.

    ``threshold`` chases the maximum cell count one step at a time; the
    FIFO holds every coordinate that attained the current threshold, in
    attainment order.  A cell can attain it only once, since its next hit
    raises the threshold and clears the FIFO.
    """

    __slots__ = ("counts", "threshold", "fifo")

    def __init__(self, geometry: SensorGeometry) -> None:
        self.counts = np.zeros((geometry.n_rows, geometry.n_cols), dtype=np.int64)
        self.threshold = 0
        self.fifo: list[tuple[int, int]] = []

    def hit(self, x: int, y: int) -> None:
        """Register one landmark-matched event at pixel (x, y)."""
        c = self.counts[y, x] + 1
        self.counts[y, x] = c
        if c > self.threshold:
            self.threshold += 1
            self.fifo.clear()
        if c == self.threshold:
            self.fifo.append((x, y))

    def detect(self) -> tuple[int, int] | None:
        """Mean of the FIFO coordinates, rounded half-up; None when empty."""
        if not self.fifo:
            return None
        sx = sum(c[0] for c in self.fifo)
        sy = sum(c[1] for c in self.fifo)
        n = len(self.fifo)
        return (
            int(math.floor(sx / n + 0.5)),
            int(math.floor(sy / n + 0.5)),
        )


def heat_spot(
    x: np.ndarray, y: np.ndarray, geometry: SensorGeometry
) -> tuple[tuple[int, int] | None, int]:
    """``detect()`` and ``threshold`` of a fresh :class:`HeatMapTracker`
    after ``hit(x[i], y[i])`` for every i, in closed form.

    The threshold ends at the largest cell count, and the FIFO then holds
    each cell at that count once, so the spot is the half-up rounded mean of
    those cells, here in integer arithmetic.
    """
    if len(x) == 0:
        return None, 0
    n_cols = geometry.n_cols
    counts = np.bincount(y * n_cols + x)
    top = int(counts.max())
    cells = np.flatnonzero(counts == top)
    n = len(cells)
    sx = int((cells % n_cols).sum())
    sy = int((cells // n_cols).sum())
    return ((2 * sx + n) // (2 * n), (2 * sy + n) // (2 * n)), top


@dataclass(frozen=True)
class TruthWindow:
    """Ground-truth bounding box valid over [t_start, t_end)."""

    t_start: int
    t_end: int
    box: Box


@dataclass(frozen=True)
class DetectionMetrics:
    precision: float
    recall: float
    in_box: int
    n_detections: int
    n_truth_windows: int
    no_detections: bool = field(default=False)


def precision_recall(in_box: int, n_detections: int, n_truth_windows: int) -> tuple[float, float]:
    """Tally arithmetic shared by evaluate(); empty detection sets give precision 0."""
    precision = in_box / n_detections if n_detections else 0.0
    recall = in_box / n_truth_windows if n_truth_windows else 0.0
    return precision, recall


def evaluate(
    detections: list[tuple[int, int, int]], truth: list[TruthWindow]
) -> DetectionMetrics:
    """Score (t, x, y) detections against timestamped ground-truth boxes.

    A detection counts as in-box when some truth window covers its
    timestamp and its coordinates fall inside that window's box.
    """
    in_box = 0
    for t, x, y in detections:
        for w in truth:
            if w.t_start <= t < w.t_end:
                if w.box.contains(x, y):
                    in_box += 1
                break
    precision, recall = precision_recall(in_box, len(detections), len(truth))
    return DetectionMetrics(
        precision=precision,
        recall=recall,
        in_box=in_box,
        n_detections=len(detections),
        n_truth_windows=len(truth),
        no_detections=not detections,
    )
