"""C kernels loaded with ``ctypes`` (``_native.c``): the five per-event
loops of the classify path and four k-means steps.  The per-event loops are
the event CSV parse; the noise cascade, over a noise map with a border of
never-fired cells; the FIFO patch copy, resumed one block of rows at a time,
which reads each value from a table of count / pool area instead of dividing
it; the k-d tree descent of those rows, which can divide each row by its
norm as it reads it; and the grid walk, the same descent read straight from
the FIFO's pooled grid, for rows that are neither normalised nor projected.
Three k-means steps make the exact Hamerly-pruned Lloyd assignment
(:class:`Lloyd`): the nearest centre per row of a product block, with
bounds from its least and second least values; a row's distance to its own
centre from a product with some of the centres; and the pass that moves
every row's bounds by the centres' drifts and lists the rows a step must
recompute.  The fourth is the per-cluster sums.

The library is built with the local gcc on the first call that needs it,
never at import, into ``__pycache__`` beside this file, named by the hash of
its source and flags; a build removes the builds of other sources there.
When gcc, the build or the cache directory is missing, :func:`load` returns
None and every caller runs its Python reference loop, which gives the same
results (k-means runs its full step, unpruned).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError

CC = "/usr/bin/gcc"
# -ffp-contract=off: no fused multiply-add, so that the k-means kernels round
# each step as numpy does; -fno-math-errno: sqrt is the one instruction, with
# no call into libm
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")
_SOURCE = Path(__file__).with_name("_native.c")
_CACHE = Path(__file__).with_name("__pycache__")

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p

BAD_STEP = "a tree node's child is not a later node, so a walk might never end"


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` to ``target``, published with one atomic rename so
    that a concurrent build or load never sees a partial file; then remove
    the builds of other sources.  A process that loaded one of those keeps
    it mapped."""
    import subprocess

    _CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=_CACHE)
    os.close(fd)
    try:
        subprocess.run(
            [CC, *CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source, check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for old in _CACHE.glob("_native-*.so"):
        if old != target:
            with contextlib.suppress(OSError):
                old.unlink()


@functools.cache
def load() -> ctypes.CDLL | None:
    """The kernels, built first if no build of this source exists; None
    when they cannot be built or loaded here.  Tried once per process."""
    # imported here, not at module level, so that importing evrect costs nothing more
    import hashlib
    import subprocess

    try:
        source = _SOURCE.read_bytes()
        digest = hashlib.sha256(source + repr(CFLAGS).encode()).hexdigest()
        target = _CACHE / f"_native-{digest[:16]}.so"
        if not target.exists():
            _build(source, target)
        lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError):
        return None
    lib.evrect_parse_csv.argtypes = [_i64, ctypes.c_char_p, _i64, _i64, _i64,
                                     _ptr, _ptr, _ptr, _ptr]
    lib.evrect_parse_csv.restype = _i64
    lib.evrect_cascade.argtypes = [_i64, _ptr, _ptr, _ptr, _i64, _i64, _i64, _i64, _ptr]
    lib.evrect_cascade.restype = _i64
    lib.evrect_patches.argtypes = [_i64, _i64, _ptr, _ptr, _i64, _i64, _i64, _i64, _i64, _ptr,
                                   _ptr, _ptr]
    lib.evrect_patches.restype = None
    lib.evrect_patch_leaves.argtypes = [_i64, _i64, _ptr, _ptr, _i64, _i64, _i64, _i64, _i64,
                                        _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr]
    lib.evrect_patch_leaves.restype = ctypes.c_int
    lib.evrect_descend.argtypes = [_i64, _ptr, _i64, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr,
                                   _ptr]
    lib.evrect_descend.restype = ctypes.c_int
    lib.evrect_nearest.argtypes = [_i64, _i64, _ptr, _ptr, _ptr, _ptr, _f64, _ptr, _ptr, _ptr, _ptr]
    lib.evrect_nearest.restype = None
    lib.evrect_own_distance.argtypes = [_i64, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _f64, _ptr, _ptr,
                                        _ptr]
    lib.evrect_own_distance.restype = None
    lib.evrect_prune.argtypes = [_i64, _ptr, _ptr, _ptr, _i64, _f64, _f64, _f64, _ptr, _ptr, _ptr,
                                 _ptr, _ptr]
    lib.evrect_prune.restype = _i64
    lib.evrect_centroid_sums.argtypes = [_i64, _i64, _ptr, _ptr, _ptr, _ptr]
    lib.evrect_centroid_sums.restype = None
    return lib


def _column(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def parse_csv(
    raw: bytes, n_rows: int, n_cols: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The x, y, t and p columns of ``raw`` when it is canonical event CSV
    (see ``evrect_parse_csv``) and every event lies inside the geometry;
    None for any other text, and without the kernels.  The kernel reads
    ``raw`` in place."""
    lib = load()
    if lib is None:
        return None
    # a canonical line ends in a newline, but for maybe the last; numpy
    # counts the newlines several times faster than bytes.count
    lines = np.count_nonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n")) + 1
    columns = np.empty((4, lines), dtype=np.int64)
    x, y, t, p = columns
    n = lib.evrect_parse_csv(len(raw), raw, n_rows, n_cols, columns.shape[1],
                             x.ctypes.data, y.ctypes.data, t.ctypes.data, p.ctypes.data)
    if n < 0:
        return None
    return x[:n], y[:n], t[:n], p[:n]


def cascade_kept(
    x: np.ndarray, y: np.ndarray, t: np.ndarray, n_rows: int, n_cols: int,
    theta_ref_us: int, theta_noise_us: int,
) -> np.ndarray | None:
    """Indices the cascade keeps, or None without the kernels.  Coordinates
    must lie inside the geometry."""
    lib = load()
    if lib is None:
        return None
    x, y, t = _column(x), _column(y), _column(t)
    kept = np.empty(len(t), dtype=np.int64)
    m = lib.evrect_cascade(len(t), x.ctypes.data, y.ctypes.data, t.ctypes.data,
                           n_rows, n_cols, theta_ref_us, theta_noise_us, kept.ctypes.data)
    if m < 0:
        raise MemoryError("noise filter: no memory for the last-spike maps")
    return kept[:m]


class PatchBlocks:
    """Each event's w x w patch of pooled sums divided by the pool area,
    filled in event order into the first rows of one reused ``rows`` x w²
    buffer, a block at a time, or walked by a tree on the pooled grid
    itself; the FIFO's pooled grid is kept from one call to the next.
    Coordinates must lie inside the geometry."""

    def __init__(
        self, lib: ctypes.CDLL, x: np.ndarray, y: np.ndarray, n_rows: int, n_cols: int,
        s: int, p: int, q: int, w: int, rows: int,
    ) -> None:
        self._lib = lib
        self._x, self._y = _column(x), _column(y)
        n = len(self._x)
        h = w // 2
        self._w = w
        self._stride = -(-n_cols // q) + 2 * h
        # a capacity of at least n never evicts, and a pooling side of at
        # least the sensor's puts every pixel in cell 0: clip both to what
        # int64 holds
        self._shape = (min(s, n), min(p, n_rows), min(q, n_cols), w, self._stride)
        # a pooled sum never exceeds what the FIFO holds; each count c reads
        # as c / (p q), the same IEEE division RectState makes
        self._value = np.arange(min(s, n) + 1, dtype=np.float64) / float(p * q)
        self._grid = np.zeros((-(-n_rows // p) + 2 * h) * self._stride, dtype=np.int64)
        self.buffer = np.empty((rows, w * w), dtype=np.float64)
        self.done = 0

    def _state(self) -> tuple:
        return (self._x.ctypes.data, self._y.ctypes.data, *self._shape,
                self._value.ctypes.data, self._grid.ctypes.data)

    def fill(self, stop: int) -> np.ndarray:
        """The patches of events ``done`` to ``stop``, written to the first
        rows of ``buffer``; returns a view of those rows."""
        start = self.done
        if not 0 <= stop - start <= len(self.buffer) or stop > len(self._x):
            raise ValueError(f"cannot fill events {start} to {stop} into {len(self.buffer)} rows")
        self._lib.evrect_patches(start, stop, *self._state(), self.buffer.ctypes.data)
        self.done = stop
        return self.buffer[: stop - start]

    def leaves(self, descent: Descent) -> np.ndarray:
        """The leaf each event from ``done`` to the last reaches when
        ``descent`` walks its patch, as :meth:`fill` would write it, read
        from the pooled grid: a walk reads only the values it compares, and
        no row is built.  Patch column c is cell (c // w, c % w) of the
        patch.  DataError at a step to an earlier or missing node."""
        col = descent.node_col
        w = self._w
        if col.size and col.max() >= w * w:
            raise ValueError(f"a column index lies outside the {w * w} patch values")
        # the offset of each node's cell from the patch's top-left cell, -1 at a leaf
        off = np.where(col >= 0, col // w * self._stride + col % w, -1)
        start, stop = self.done, len(self._x)
        out = np.empty(stop - start, dtype=np.int64)
        if self._lib.evrect_patch_leaves(start, stop, *self._state(), len(col), off.ctypes.data,
                                         *descent.pointers[1:], out.ctypes.data) < 0:
            raise DataError(BAD_STEP)
        self.done = stop
        return out


def patch_blocks(
    x: np.ndarray, y: np.ndarray, n_rows: int, n_cols: int, s: int, p: int, q: int, w: int,
    rows: int,
) -> PatchBlocks | None:
    """A :class:`PatchBlocks` over the events, or None without the kernels."""
    lib = load()
    return None if lib is None else PatchBlocks(lib, x, y, n_rows, n_cols, s, p, q, w, rows)


class Descent:
    """The C walk of one tree, with its node arrays laid out once.  Node j
    reads column ``node_col[j]``, or is a leaf where that is -1; every node
    array must be as long as ``node_col``."""

    def __init__(
        self, lib: ctypes.CDLL, node_col: np.ndarray, split_val: np.ndarray, left: np.ndarray,
        right: np.ndarray, leaf_index: np.ndarray,
    ) -> None:
        self._lib = lib
        self._nodes = (np.ascontiguousarray(node_col, dtype=np.int64),
                       np.ascontiguousarray(split_val, dtype=np.float64),
                       *(np.ascontiguousarray(a, dtype=np.int32) for a in (left, right, leaf_index)))
        self.pointers = [a.ctypes.data for a in self._nodes]

    @property
    def node_col(self) -> np.ndarray:
        return self._nodes[0]

    def leaves(self, rows: np.ndarray, norm: np.ndarray | None = None) -> np.ndarray:
        """The leaf index each row of the C-order float64 matrix ``rows``
        reaches, read in place; columns must lie inside the rows.  With
        ``norm``, one C-order float64 value per row, a row's values are read
        divided by its norm where that is > 0.  DataError at a step to an
        earlier or missing node."""
        out = np.empty(len(rows), dtype=np.int64)
        if self._lib.evrect_descend(len(rows), rows.ctypes.data, rows.shape[1],
                                    None if norm is None else norm.ctypes.data,
                                    len(self._nodes[0]), *self.pointers, out.ctypes.data) < 0:
            raise DataError(BAD_STEP)
        return out


def descent(
    node_col: np.ndarray, split_val: np.ndarray, left: np.ndarray, right: np.ndarray,
    leaf_index: np.ndarray,
) -> Descent | None:
    """A :class:`Descent` of the tree, or None without the kernels."""
    lib = load()
    return None if lib is None else Descent(lib, node_col, split_val, left, right, leaf_index)


class Lloyd:
    """The C steps of exact bound-pruned Lloyd assignments (dictionary.py)
    over ``n`` samples, writing into arrays of length n that the caller
    owns: ``labels`` (int64) and ``best``, ``upper`` and ``lower``
    (float64).  Every matrix must be C-order float64, every index array
    int64 and every index a row of those arrays; ``prod``'s rows must be at
    least as many as the indices passed with it."""

    def __init__(
        self, lib: ctypes.CDLL, x2: np.ndarray, labels: np.ndarray, best: np.ndarray,
        upper: np.ndarray, lower: np.ndarray,
    ) -> None:
        self._lib = lib
        self._arrays = (x2, labels, best, upper, lower)
        if len({len(a) for a in self._arrays}) != 1:
            raise ValueError("the per-sample arrays differ in length")
        self._x2, self._labels, self._best, self._upper, self._lower = (
            a.ctypes.data for a in self._arrays)

    def nearest(self, prod: np.ndarray, c2: np.ndarray, idx: np.ndarray, eps: float) -> None:
        """For row r of the n x k block ``prod`` of products x . c, sample
        ``idx[r]``: the first index of least ``-2 prod + c2`` (np.argmin's
        rule), that value plus x2 floored at zero, and the bounds from it
        and from the second least, each widened by ``eps``."""
        if len(idx) > len(prod) or prod.shape[1] != len(c2):
            raise ValueError(f"{len(idx)} samples and {len(c2)} centres do not fit {prod.shape}")
        self._lib.evrect_nearest(len(idx), prod.shape[1], prod.ctypes.data, c2.ctypes.data,
                                 self._x2, idx.ctypes.data, eps, self._labels, self._best,
                                 self._upper, self._lower)

    def own_distance(
        self, prod: np.ndarray, col: np.ndarray, c2: np.ndarray, idx: np.ndarray, eps: float,
    ) -> None:
        """For row r of the n x m block ``prod`` of products with the
        centres j where ``col[j] >= 0``, at column col[j], sample ``idx[r]``:
        the distance to its own centre, which must be one of those, as
        :meth:`nearest` computes it, and its upper bound."""
        if len(idx) > len(prod) or len(col) != len(c2):
            raise ValueError(f"{len(idx)} samples and {len(c2)} centres do not fit {prod.shape}")
        self._lib.evrect_own_distance(len(idx), prod.shape[1], prod.ctypes.data, col.ctypes.data,
                                      c2.ctypes.data, self._x2, idx.ctypes.data, eps,
                                      self._labels, self._best, self._upper)

    def prune(
        self, drift: np.ndarray, moved: np.ndarray, margin: float, todo: np.ndarray,
        own: np.ndarray,
    ) -> tuple[int, int]:
        """Moves every sample's bounds by the centres' ``drift`` (k float64
        upper bounds) and sorts the samples: into ``todo`` those whose
        nearest centre is not proven by a gap of more than ``margin``, into
        ``own`` the proven ones whose centre ``moved`` (k bool).  Returns
        the two counts; both lists are in row order."""
        if len(todo) != len(self._arrays[0]) or len(own) != len(todo):
            raise ValueError("todo and own must each hold every sample")
        far = int(np.argmax(drift))
        n_own = _i64()
        n_todo = self._lib.evrect_prune(
            len(todo), self._labels, drift.ctypes.data, moved.ctypes.data, far, float(drift[far]),
            float(np.delete(drift, far).max()), margin, self._upper, self._lower,
            todo.ctypes.data, own.ctypes.data, ctypes.byref(n_own))
        return n_todo, n_own.value


def lloyd(
    x2: np.ndarray, labels: np.ndarray, best: np.ndarray, upper: np.ndarray, lower: np.ndarray,
) -> Lloyd | None:
    """A :class:`Lloyd` over the arrays, or None without the kernels."""
    lib = load()
    return None if lib is None else Lloyd(lib, x2, labels, best, upper, lower)


def centroid_sums(
    x: np.ndarray, labels: np.ndarray, k: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Per cluster, the sum of its rows of ``x`` (C-order float64) added in
    row order, and its row count; or None without the kernels.  Every label
    must lie in [0, k)."""
    lib = load()
    if lib is None:
        return None
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    sums = np.zeros((k, x.shape[1]), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    lib.evrect_centroid_sums(len(x), x.shape[1], x.ctypes.data, labels.ctypes.data,
                             sums.ctypes.data, counts.ctypes.data)
    return sums, counts
