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
from .events import MAX_TIMESTAMP, Event, EventStream, SensorGeometry

NEVER = -(1 << 62)

_NEIGHBOR_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


@dataclass(frozen=True)
class FilterConfig:
    theta_noise_us: int = 5_000
    theta_ref_us: int = 1_000

    def __post_init__(self) -> None:
        if self.theta_noise_us <= 0 or self.theta_ref_us <= 0:
            raise DataError("filter thresholds must be strictly positive")
        if max(self.theta_noise_us, self.theta_ref_us) > MAX_TIMESTAMP:
            raise DataError(f"filter thresholds must be at most {MAX_TIMESTAMP} us")


class LastSpikeMap:
    """Most recent stage-input timestamp per pixel (flat row-major grid)."""

    __slots__ = ("n_rows", "n_cols", "cells")

    def __init__(self, geometry: SensorGeometry) -> None:
        self.n_rows = geometry.n_rows
        self.n_cols = geometry.n_cols
        self.cells = [NEVER] * (geometry.n_rows * geometry.n_cols)

    def last(self, x: int, y: int) -> int:
        return self.cells[y * self.n_cols + x]

    def record(self, x: int, y: int, t: int) -> None:
        self.cells[y * self.n_cols + x] = t


def refractory_pass(event: Event, state: LastSpikeMap, theta_ref_us: int = 1_000) -> bool:
    """Accept unless the same pixel fired within the refractory period.

    The map records the event's timestamp either way.
    """
    idx = event.y * state.n_cols + event.x
    last = state.cells[idx]
    state.cells[idx] = event.t
    return last == NEVER or event.t - last > theta_ref_us


def noise_pass(event: Event, state: LastSpikeMap, theta_noise_us: int = 5_000) -> bool:
    """Accept if any of the 8 surrounding pixels fired recently enough.

    The center pixel does not count as its own neighbor.  The map
    records the event's timestamp either way.
    """
    x, y, t = event.x, event.y, event.t
    nc, nr = state.n_cols, state.n_rows
    cells = state.cells
    accepted = False
    for dx, dy in _NEIGHBOR_OFFSETS:
        xj, yj = x + dx, y + dy
        if 0 <= xj < nc and 0 <= yj < nr:
            tj = cells[yj * nc + xj]
            if tj != NEVER and t - tj < theta_noise_us:
                accepted = True
                break
    cells[y * nc + x] = t
    return accepted


class CascadeFilter:
    """Per-event two-stage filter; the noise stage only sees refractory survivors."""

    __slots__ = ("cfg", "n_rows", "n_cols", "_ref_cells", "_noise_cells")

    def __init__(self, geometry: SensorGeometry, cfg: FilterConfig | None = None) -> None:
        self.cfg = cfg or FilterConfig()
        self.n_rows = geometry.n_rows
        self.n_cols = geometry.n_cols
        n = geometry.n_rows * geometry.n_cols
        self._ref_cells = [NEVER] * n
        self._noise_cells = [NEVER] * n

    def push(self, x: int, y: int, t: int) -> bool:
        nc = self.n_cols
        idx = y * nc + x
        ref = self._ref_cells
        last = ref[idx]
        ref[idx] = t
        if last != NEVER and t - last <= self.cfg.theta_ref_us:
            return False
        cells = self._noise_cells
        theta = self.cfg.theta_noise_us
        accepted = False
        if 0 < x < nc - 1 and 0 < y < self.n_rows - 1:
            for off in (idx - nc - 1, idx - nc, idx - nc + 1, idx - 1,
                        idx + 1, idx + nc - 1, idx + nc, idx + nc + 1):
                tj = cells[off]
                if tj != NEVER and t - tj < theta:
                    accepted = True
                    break
        else:
            nr = self.n_rows
            for dx, dy in _NEIGHBOR_OFFSETS:
                xj, yj = x + dx, y + dy
                if 0 <= xj < nc and 0 <= yj < nr:
                    tj = cells[yj * nc + xj]
                    if tj != NEVER and t - tj < theta:
                        accepted = True
                        break
        cells[idx] = t
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
