"""Deterministic synthetic scene generator with ground-truth tracks.

Emits edge events along a moving shape contour (bar / cross / ring) plus
uniform background noise.  Contour events get per-event timestamp jitter
drawn uniformly within one frame interval, which avoids pathological
simultaneity; the global sort is stable so a fixed seed yields a
byte-identical stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import Box, TruthWindow
from .errors import DataError
from .events import EventStream, SensorGeometry

SHAPES = ("bar", "cross", "ring")


@dataclass(frozen=True)
class SceneSpec:
    """A single moving shape on a linear trajectory plus uniform noise."""

    shape: str = "ring"
    geometry: SensorGeometry = SensorGeometry()
    start_x: float = 120.0
    start_y: float = 90.0
    vx: float = 0.0          # pixels / second
    vy: float = 0.0
    size: float = 12.0       # half-length of a bar / cross arm, or ring radius
    duration_us: int = 1_000_000
    event_rate: float = 20_000.0   # contour events / second
    noise_rate: float = 0.0        # uniform background events / second
    frame_interval_us: int = 10_000

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise DataError(f"unknown shape {self.shape!r}; expected one of {SHAPES}")
        if self.duration_us <= 0 or self.frame_interval_us <= 0:
            raise DataError("duration and frame interval must be positive")
        if self.size <= 0:
            raise DataError("shape size must be positive")


def contour_pixels(shape: str, cx: float, cy: float, size: float) -> np.ndarray:
    """Integer pixels on the shape contour, as an (n, 2) array of (x, y)."""
    if shape == "bar":
        xs = np.arange(round(cx - size), round(cx + size) + 1)
        pts = np.stack([xs, np.full_like(xs, round(cy))], axis=1)
    elif shape == "cross":
        xs = np.arange(round(cx - size), round(cx + size) + 1)
        ys = np.arange(round(cy - size), round(cy + size) + 1)
        horiz = np.stack([xs, np.full_like(xs, round(cy))], axis=1)
        vert = np.stack([np.full_like(ys, round(cx)), ys], axis=1)
        pts = np.concatenate([horiz, vert], axis=0)
    elif shape == "ring":
        n = max(16, int(np.ceil(10 * size)))
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        xs = np.rint(cx + size * np.cos(theta)).astype(np.int64)
        ys = np.rint(cy + size * np.sin(theta)).astype(np.int64)
        pts = np.stack([xs, ys], axis=1)
    else:
        raise DataError(f"unknown shape {shape!r}")
    return np.unique(pts.astype(np.int64), axis=0)


def synth_scene(spec: SceneSpec, seed: int) -> tuple[EventStream, list[TruthWindow]]:
    """Generate an event stream and per-frame ground-truth boxes.

    Deterministic for a fixed (spec, seed).  Raises if the trajectory
    carries the shape contour off the sensor.
    """
    rng = np.random.default_rng(seed)
    geo = spec.geometry
    n_frames = spec.duration_us // spec.frame_interval_us
    if n_frames == 0:
        raise DataError("duration shorter than one frame interval")
    interval_s = spec.frame_interval_us * 1e-6

    xs_all: list[np.ndarray] = []
    ys_all: list[np.ndarray] = []
    ts_all: list[np.ndarray] = []
    truth: list[TruthWindow] = []
    for f in range(n_frames):
        t0 = f * spec.frame_interval_us
        t1 = t0 + spec.frame_interval_us
        t_mid_s = (t0 + t1) / 2 * 1e-6
        cx = spec.start_x + spec.vx * t_mid_s
        cy = spec.start_y + spec.vy * t_mid_s
        contour = contour_pixels(spec.shape, cx, cy, spec.size)
        if (
            contour[:, 0].min() < 0
            or contour[:, 0].max() >= geo.n_cols
            or contour[:, 1].min() < 0
            or contour[:, 1].max() >= geo.n_rows
        ):
            raise DataError(f"trajectory leaves sensor bounds at frame {f}")
        truth.append(
            TruthWindow(
                t_start=t0,
                t_end=t1,
                box=Box(
                    x_min=int(contour[:, 0].min()),
                    y_min=int(contour[:, 1].min()),
                    x_max=int(contour[:, 0].max()),
                    y_max=int(contour[:, 1].max()),
                ),
            )
        )

        n_sig = int(rng.poisson(spec.event_rate * interval_s))
        if n_sig:
            pick = rng.integers(0, len(contour), size=n_sig)
            xs_all.append(contour[pick, 0])
            ys_all.append(contour[pick, 1])
            ts_all.append(rng.integers(t0, t1, size=n_sig))
        n_noise = int(rng.poisson(spec.noise_rate * interval_s))
        if n_noise:
            xs_all.append(rng.integers(0, geo.n_cols, size=n_noise))
            ys_all.append(rng.integers(0, geo.n_rows, size=n_noise))
            ts_all.append(rng.integers(t0, t1, size=n_noise))

    if xs_all:
        x = np.concatenate(xs_all)
        y = np.concatenate(ys_all)
        t = np.concatenate(ts_all)
    else:
        x = np.empty(0, dtype=np.int64)
        y = np.empty(0, dtype=np.int64)
        t = np.empty(0, dtype=np.int64)
    p = rng.integers(0, 2, size=len(x))
    order = np.argsort(t, kind="stable")
    stream = EventStream(geo, x[order], y[order], t[order], p[order], validate=False)
    return stream, truth


def write_truth_csv(truth: list[TruthWindow]) -> str:
    """Serialize ground-truth windows as ``t_start,t_end,x_min,y_min,x_max,y_max``."""
    lines = [
        f"{w.t_start},{w.t_end},{w.box.x_min},{w.box.y_min},{w.box.x_max},{w.box.y_max}"
        for w in truth
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_truth_csv(text: str) -> list[TruthWindow]:
    out: list[TruthWindow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise DataError(f"truth line {lineno}: expected 6 fields")
        try:
            t0, t1, x0, y0, x1, y1 = (int(v) for v in parts)
        except ValueError:
            raise DataError(f"truth line {lineno}: expected 6 integers") from None
        out.append(TruthWindow(t0, t1, Box(x0, y0, x1, y1)))
    return out
