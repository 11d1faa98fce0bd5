"""Event-count matrix over a rolling FIFO of recent events, with a
pooled view and per-event patch descriptors.

The pooled matrix stores raw block sums so every incremental update is
exact integer arithmetic; the equal-weight averaging (divide by the
pool area) happens only when a descriptor is extracted.  A zero border
of half the patch width is kept around the pooled grid so extraction is
a single slice with no boundary cases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .events import SensorGeometry


@dataclass(frozen=True)
class RectConfig:
    s: int = 5_000          # FIFO capacity in events
    p: int = 2              # pooling cell height
    q: int = 2              # pooling cell width
    w: int = 9              # patch side length, in pooled cells
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.s < 1:
            raise DataError("FIFO capacity must be at least 1")
        if self.p < 1 or self.q < 1:
            raise DataError("pooling cell sides must be at least 1")
        if self.w < 1 or self.w % 2 == 0:
            raise DataError("patch side must be odd and positive")

    @property
    def dim(self) -> int:
        return self.w * self.w


class RectState:
    """Rolling count matrix, pooled sums, and the FIFO tying them together."""

    __slots__ = ("cfg", "geometry", "counts", "fifo", "_padded", "_half", "_n_rows_pooled", "_n_cols_pooled")

    def __init__(self, geometry: SensorGeometry, cfg: RectConfig | None = None) -> None:
        self.cfg = cfg or RectConfig()
        self.geometry = geometry
        self._n_rows_pooled = -(-geometry.n_rows // self.cfg.p)
        self._n_cols_pooled = -(-geometry.n_cols // self.cfg.q)
        self._half = self.cfg.w // 2
        self.counts = np.zeros((geometry.n_rows, geometry.n_cols), dtype=np.int64)
        self._padded = np.zeros(
            (self._n_rows_pooled + 2 * self._half, self._n_cols_pooled + 2 * self._half),
            dtype=np.int64,
        )
        self.fifo: deque[tuple[int, int]] = deque()

    @property
    def pooled(self) -> np.ndarray:
        """Raw block sums, a view onto the padded working array."""
        h = self._half
        return self._padded[h : h + self._n_rows_pooled, h : h + self._n_cols_pooled]

    def push(self, x: int, y: int) -> None:
        """Admit one event, evicting the oldest when the FIFO is full."""
        cfg = self.cfg
        h = self._half
        fifo = self.fifo
        if len(fifo) == cfg.s:
            ox, oy = fifo.popleft()
            self.counts[oy, ox] -= 1
            self._padded[h + oy // cfg.p, h + ox // cfg.q] -= 1
        fifo.append((x, y))
        self.counts[y, x] += 1
        self._padded[h + y // cfg.p, h + x // cfg.q] += 1

    def extract_values(self, x: int, y: int) -> np.ndarray:
        """Patch around the event's pooled cell, averaged, optionally unit-norm."""
        cfg = self.cfg
        r = y // cfg.p
        c = x // cfg.q
        vals = self._padded[r : r + cfg.w, c : c + cfg.w].astype(np.float64).ravel()
        vals /= cfg.p * cfg.q
        if cfg.normalize:
            norm = np.sqrt(vals @ vals)
            if norm > 0.0:
                vals /= norm
        return vals


def batch_pooled(counts: np.ndarray, p: int, q: int) -> np.ndarray:
    """Raw stride-(p, q) block sums of a zero-padded count matrix.

    Reference computation for the incrementally maintained pooled view.
    """
    m, n = counts.shape
    rows = -(-m // p)
    cols = -(-n // q)
    padded = np.zeros((rows * p, cols * q), dtype=counts.dtype)
    padded[:m, :n] = counts
    return padded.reshape(rows, p, cols, q).sum(axis=(1, 3))
