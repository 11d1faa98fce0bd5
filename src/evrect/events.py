"""Event stream container and file formats.

The canonical interchange format is header-less CSV with one ``x,y,t,p``
line per event (timestamps in microseconds, non-decreasing).  A binary
decoder for the public 34x34 digit recordings (5 bytes per event) is
provided for dataset ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import _native
from .errors import DataError

MAX_TIMESTAMP = (1 << 63) - 1

# the noise filter's two int64 last-spike maps take 256 MB at this many pixels,
# over 10x those of a 1280x960 sensor
_MAX_PIXELS = 1 << 24


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel-array dimensions of the sensor (rows x cols)."""

    n_rows: int = 180
    n_cols: int = 240

    def __post_init__(self) -> None:
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise DataError(f"sensor geometry must be positive, got {self.n_rows}x{self.n_cols}")
        if self.n_rows * self.n_cols > _MAX_PIXELS:
            raise DataError(f"sensor geometry {self.n_rows}x{self.n_cols} exceeds {_MAX_PIXELS} pixels")

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.n_cols and 0 <= y < self.n_rows


#: Geometry of the public N-MNIST recordings.
NMNIST_GEOMETRY = SensorGeometry(n_rows=34, n_cols=34)


@dataclass(frozen=True)
class Event:
    """One camera spike: pixel location, microsecond timestamp, polarity."""

    x: int
    y: int
    t: int
    p: int


class EventStream:
    """Ordered event sequence over a fixed geometry, stored as column arrays.

    Timestamps are non-decreasing across the sequence; coordinates lie
    within the geometry.  Instances are treated as immutable.
    """

    __slots__ = ("geometry", "x", "y", "t", "p")

    def __init__(
        self,
        geometry: SensorGeometry,
        x: np.ndarray,
        y: np.ndarray,
        t: np.ndarray,
        p: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self.geometry = geometry
        self.x = np.ascontiguousarray(x, dtype=np.int64)
        self.y = np.ascontiguousarray(y, dtype=np.int64)
        self.t = np.ascontiguousarray(t, dtype=np.int64)
        self.p = np.ascontiguousarray(p, dtype=np.int64)
        if not (len(self.x) == len(self.y) == len(self.t) == len(self.p)):
            raise DataError("event stream columns must have equal length")
        if validate:
            self.validate()

    @classmethod
    def from_events(cls, geometry: SensorGeometry, events: Iterable[Event | tuple]) -> "EventStream":
        rows = [(e.x, e.y, e.t, e.p) if isinstance(e, Event) else tuple(e) for e in events]
        if rows:
            arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), 4)
        else:
            arr = np.empty((0, 4), dtype=np.int64)
        return cls(geometry, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])

    def check_coordinates(self, geometry: SensorGeometry | None = None) -> None:
        """Raise DataError unless every pixel lies inside the geometry (the
        stream's own by default); code that indexes memory with the
        coordinates calls this first."""
        geo = geometry or self.geometry
        x, y = self.x, self.y
        if len(x) == 0 or (
            x.min() >= 0 and y.min() >= 0 and x.max() < geo.n_cols and y.max() < geo.n_rows
        ):
            return
        i = int(np.flatnonzero((x < 0) | (x >= geo.n_cols) | (y < 0) | (y >= geo.n_rows))[0])
        raise DataError(
            f"event {i}: coordinate ({int(x[i])},{int(y[i])}) outside "
            f"{geo.n_cols}x{geo.n_rows} sensor"
        )

    def validate(self) -> None:
        if len(self.x) == 0:
            return
        self.check_coordinates()
        if np.any(self.t < 0):
            i = int(np.flatnonzero(self.t < 0)[0])
            raise DataError(f"event {i}: negative timestamp {int(self.t[i])}")
        reg = np.flatnonzero(np.diff(self.t) < 0)
        if reg.size:
            i = int(reg[0]) + 1
            raise DataError(
                f"event {i}: timestamp regression {int(self.t[i])} after {int(self.t[i - 1])}"
            )
        badp = np.flatnonzero((self.p != 0) & (self.p != 1))
        if badp.size:
            i = int(badp[0])
            raise DataError(f"event {i}: polarity must be 0 or 1, got {int(self.p[i])}")

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[Event]:
        xs, ys, ts, ps = self.x.tolist(), self.y.tolist(), self.t.tolist(), self.p.tolist()
        for i in range(len(xs)):
            yield Event(xs[i], ys[i], ts[i], ps[i])

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.x[i]), int(self.y[i]), int(self.t[i]), int(self.p[i]))

    def slice(self, index: np.ndarray) -> "EventStream":
        """Subsequence selected by a sorted index array (no re-validation)."""
        return EventStream(
            self.geometry, self.x[index], self.y[index], self.t[index], self.p[index],
            validate=False,
        )


def parse_csv(data: bytes | bytearray | memoryview | str, geometry: SensorGeometry) -> EventStream:
    """Parse header-less ``x,y,t,p`` lines, validating bounds and ordering.

    Errors carry 1-based line numbers.  Text in the canonical form (what
    :func:`write_csv` writes) is read in one pass of the C kernel
    (``_native.parse_csv``).  Anything else, any text that breaks a rule,
    and all text where the kernels cannot be built go through the
    line-by-line parser: it is the reference, gives the same arrays, and
    raises the first bad line's error.
    """
    # any character that is not ASCII makes the text non-canonical
    raw = data.encode("utf-8", "replace") if isinstance(data, str) else bytes(data)
    columns = _native.parse_csv(raw, geometry.n_rows, geometry.n_cols)
    if columns is None:
        return _parse_lines(data if isinstance(data, str) else raw, geometry)
    return EventStream(geometry, *columns, validate=False)


def _parse_lines(data: bytes | str, geometry: SensorGeometry) -> EventStream:
    """The reference parser, one line at a time; raises on the first bad line."""
    bad_line = bad_byte = 0  # the line of the first byte that is not UTF-8, if any
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            text = data.decode("utf-8", "surrogateescape")
            bad_line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
            bad_byte = data[exc.start]
    else:
        text = data
    xs: list[int] = []
    ys: list[int] = []
    ts: list[int] = []
    ps: list[int] = []
    prev_t = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if lineno == bad_line:
            raise DataError(f"line {lineno}: byte 0x{bad_byte:02x} is not UTF-8 text")
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"line {lineno}: expected 4 comma-separated fields, got {len(parts)}")
        try:
            x, y, t, p = (int(v) for v in parts)
        except ValueError:
            raise DataError(f"line {lineno}: non-integer field in {line!r}") from None
        if not geometry.contains(x, y):
            raise DataError(
                f"line {lineno}: coordinate ({x},{y}) outside "
                f"{geometry.n_cols}x{geometry.n_rows} sensor"
            )
        if t < 0 or t > MAX_TIMESTAMP:
            raise DataError(f"line {lineno}: timestamp {t} out of range")
        if t < prev_t:
            raise DataError(f"line {lineno}: timestamp regression {t} after {prev_t}")
        if p not in (0, 1):
            raise DataError(f"line {lineno}: polarity must be 0 or 1, got {p}")
        xs.append(x)
        ys.append(y)
        ts.append(t)
        ps.append(p)
        prev_t = t
    return EventStream(
        geometry,
        np.asarray(xs, dtype=np.int64),
        np.asarray(ys, dtype=np.int64),
        np.asarray(ts, dtype=np.int64),
        np.asarray(ps, dtype=np.int64),
        validate=False,
    )


def write_csv(stream: EventStream) -> str:
    """Inverse of :func:`parse_csv`; reproduces field values exactly."""
    xs, ys, ts, ps = stream.x.tolist(), stream.y.tolist(), stream.t.tolist(), stream.p.tolist()
    lines = [f"{xs[i]},{ys[i]},{ts[i]},{ps[i]}" for i in range(len(xs))]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_nmnist_bin(data: bytes) -> EventStream:
    """Decode the public N-MNIST binary recording format.

    5 bytes per event: byte0 = x, byte1 = y, byte2 bit 7 = polarity, and the
    remaining 23 bits (byte2 bits 6..0, byte3, byte4, big-endian) are the
    timestamp in microseconds.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size % 5 != 0:
        raise DataError(f"truncated record: {raw.size} bytes is not a multiple of 5")
    rec = raw.reshape(-1, 5).astype(np.int64)
    x = rec[:, 0]
    y = rec[:, 1]
    p = rec[:, 2] >> 7
    t = ((rec[:, 2] & 0x7F) << 16) | (rec[:, 3] << 8) | rec[:, 4]
    return EventStream(NMNIST_GEOMETRY, x, y, t, p)
