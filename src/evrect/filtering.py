"""Streaming noise suppression: a refractory filter cascaded into a
nearest-neighbor temporal filter.

Both stages keep a per-pixel last-spike map that is updated by every
stage-input event, accepted or not, because the acceptance rules are
defined over all prior events of the raw stage input.  Comparisons are
strict: an exact tie with either threshold rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DataError
from .events import MAX_TIMESTAMP, EventStream, SensorGeometry

NEVER = -(1 << 62)


@dataclass(frozen=True)
class FilterConfig:
    theta_noise_us: int = 5_000
    theta_ref_us: int = 1_000

    def __post_init__(self) -> None:
        if self.theta_noise_us <= 0 or self.theta_ref_us <= 0:
            raise DataError("filter thresholds must be strictly positive")
        if max(self.theta_noise_us, self.theta_ref_us) > MAX_TIMESTAMP:
            raise DataError(f"filter thresholds must be at most {MAX_TIMESTAMP} us")


class CascadeFilter:
    """Per-event two-stage filter; the noise stage only sees refractory
    survivors.  The reference model of the C kernel: the noise map has a
    border of never-fired cells, so every pixel, corners included, reads
    the same eight neighbour cells and never its own."""

    __slots__ = ("cfg", "n_cols", "_wide", "_around", "_ref_cells", "_noise_cells")

    def __init__(self, geometry: SensorGeometry, cfg: FilterConfig | None = None) -> None:
        self.cfg = cfg or FilterConfig()
        self.n_cols = geometry.n_cols
        wide = self._wide = geometry.n_cols + 2
        self._around = (-wide - 1, -wide, -wide + 1, -1, 1, wide - 1, wide, wide + 1)
        self._ref_cells = [NEVER] * (geometry.n_rows * geometry.n_cols)
        self._noise_cells = [NEVER] * ((geometry.n_rows + 2) * wide)

    def push(self, x: int, y: int, t: int) -> bool:
        ref = self._ref_cells
        idx = y * self.n_cols + x
        last = ref[idx]
        ref[idx] = t
        if last != NEVER and t - last <= self.cfg.theta_ref_us:
            return False
        cells = self._noise_cells
        cell = (y + 1) * self._wide + x + 1
        theta = self.cfg.theta_noise_us
        accepted = False
        for off in self._around:
            tj = cells[cell + off]
            if tj != NEVER and t - tj < theta:
                accepted = True
                break
        cells[cell] = t
        return accepted


def cascade(stream: EventStream, cfg: FilterConfig | None = None) -> EventStream:
    """Filter a whole stream, preserving order and all event fields.

    Runs the C kernel when it is available, else :class:`CascadeFilter`
    event by event; both keep the same events.
    """
    cfg = cfg or FilterConfig()
    geo = stream.geometry
    stream.check_coordinates()
    keep = _native.cascade_kept(stream.x, stream.y, stream.t, geo.n_rows, geo.n_cols,
                                cfg.theta_ref_us, cfg.theta_noise_us)
    if keep is None:
        push = CascadeFilter(geo, cfg).push
        xs = stream.x.tolist()
        ys = stream.y.tolist()
        ts = stream.t.tolist()
        keep = np.asarray([i for i in range(len(xs)) if push(xs[i], ys[i], ts[i])], dtype=np.int64)
    return stream.slice(keep)
