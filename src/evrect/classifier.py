"""One-vs-all linear SVM over match histograms, plus a streaming scorer
that keeps per-class sums with one add (and one subtract once the
window is full) per event.

Histograms are L1-normalized for training.  The streaming export folds
the 1/S factor and the bias into per-feature weights so window sums
reproduce batch scores: in the fixed-point profile the equality is
exact integer arithmetic, in the float profile it holds to rounding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray          # (C, K)
    bias: np.ndarray             # (C,)
    class_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def normalize_l1(h: np.ndarray) -> np.ndarray:
    arr = np.asarray(h, dtype=np.float64)
    total = arr.sum(axis=-1, keepdims=True)
    if np.any(total == 0):
        raise DataError("all-zero histogram cannot be normalized")
    return arr / total


def train(
    histograms: np.ndarray,
    labels: list[str],
    lam: float = 1e-4,
    epochs: int = 200,
    seed: int = 0,
    class_names: tuple[str, ...] | None = None,
) -> SvmModel:
    """Hinge-loss subgradient training, one binary problem per class.

    The step size is 1/(lam*t) with the usual per-step shrink of the
    weight vector; the bias is updated on violations but never shrunk.
    Deterministic for a fixed seed.
    """
    x = normalize_l1(np.asarray(histograms, dtype=np.float64))
    if x.ndim != 2 or len(x) != len(labels):
        raise DataError("histogram matrix and labels disagree")
    if class_names is None:
        class_names = tuple(sorted(set(labels)))
    if len(class_names) < 2:
        raise DataError("need at least 2 classes")
    for name in class_names:
        if name not in labels:
            raise DataError(f"class {name!r} has no training samples")
    index_of = {name: i for i, name in enumerate(class_names)}
    try:
        label_idx = np.asarray([index_of[l] for l in labels], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"label {exc.args[0]!r} not among classes {class_names}") from None

    n, k = x.shape
    weights = np.zeros((len(class_names), k), dtype=np.float64)
    bias = np.zeros(len(class_names), dtype=np.float64)
    for c in range(len(class_names)):
        rng = np.random.default_rng([seed, c])
        y = np.where(label_idx == c, 1.0, -1.0)
        w = weights[c]
        b = 0.0
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                margin = y[i] * (x[i] @ w + b)
                w *= 1.0 - 1.0 / t
                if margin < 1.0:
                    w += (eta * y[i]) * x[i]
                    b += eta * y[i]
        bias[c] = b
    return SvmModel(weights=weights, bias=bias, class_names=class_names)


def scores_of(model: SvmModel, histogram: np.ndarray) -> np.ndarray:
    h = normalize_l1(histogram)
    return h @ model.weights.T + model.bias


def classify_batch(model: SvmModel, histograms: np.ndarray) -> tuple[list[str], np.ndarray]:
    s = scores_of(model, np.asarray(histograms, dtype=np.float64))
    idx = np.argmax(s, axis=1)
    return [model.class_names[int(i)] for i in idx], s


@dataclass(frozen=True)
class StreamModel:
    """Per-leaf weight columns pre-scaled for windowed accumulation.

    weights[c][k] = (svm.weights[c][k] + svm.bias[c]) / S, optionally in
    fixed point.  Summing columns over a full S-event window equals the
    batch score of that window's histogram (scaled by 2^frac_bits when
    fixed-point).
    """

    weights: np.ndarray   # (C, K) float64, or int64 when fixed_point
    window_size: int
    class_names: tuple[str, ...]
    fixed_point: bool = False
    frac_bits: int = 24


def export_stream(
    model: SvmModel, window_size: int, fixed_point: bool = False, frac_bits: int = 24
) -> StreamModel:
    if window_size < 1:
        raise DataError("window size must be at least 1")
    w = (model.weights + model.bias[:, None]) / window_size
    if fixed_point:
        if not 1 <= frac_bits <= 40:
            raise DataError("frac_bits outside [1, 40]")
        w = np.rint(w * (1 << frac_bits))
        # a full window sums window_size columns, so that sum must fit too
        peak = np.abs(w).max()
        if not np.isfinite(peak) or int(peak) > np.iinfo(np.int64).max // window_size:
            raise DataError(f"fixed-point weights overflow a {window_size}-event window sum")
        w = w.astype(np.int64)
    return StreamModel(
        weights=w,
        window_size=window_size,
        class_names=model.class_names,
        fixed_point=fixed_point,
        frac_bits=frac_bits,
    )


class StreamScorer:
    """Sliding-window class sums over leaf matches, one add per event."""

    __slots__ = ("model", "window", "sums", "_cols")

    def __init__(self, model: StreamModel) -> None:
        self.model = model
        self.window: deque[int] = deque()
        dtype = np.int64 if model.fixed_point else np.float64
        self.sums = np.zeros(model.weights.shape[0], dtype=dtype)
        # row-major by leaf so each event touches one contiguous row
        self._cols = np.ascontiguousarray(model.weights.T.astype(dtype))

    def push(self, leaf_index: int) -> int:
        """Feed one match; returns the current argmax class index."""
        window = self.window
        if len(window) == self.model.window_size:
            self.sums -= self._cols[window.popleft()]
        window.append(leaf_index)
        self.sums += self._cols[leaf_index]
        return int(np.argmax(self.sums))

    @property
    def label(self) -> str:
        return self.model.class_names[int(np.argmax(self.sums))]

