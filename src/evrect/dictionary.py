"""Dictionary learning by k-means and per-window match histograms.

Clustering is deterministic for a fixed seed: k-means++ seeding from a
seeded generator, Lloyd iterations with lowest-index tie-breaking, and
empty clusters keeping their previous centroid.  Exact duplicate
centroids are collapsed (first occurrence wins) so the tree downstream
can hold one entry per leaf.

Both phases walk the samples in row blocks, so that no temporary grows
with the sample count:

- Seeding computes each new centre's squared distances
  ``einsum("ij,ij->i")`` over blocks of ``_SEED_ROWS`` rows in one reused
  buffer.  The einsum sums each row on its own, so its bits, and the seeded
  draws that read them, do not depend on the block.  This step stays in
  numpy: a C loop would have to match einsum's summation order, which is
  numpy's to change.
- Each Lloyd assignment writes ``x @ centers.T`` into one reused block of
  about 2 MB.  Every product has the same row count, the last block
  overlapping the one before it, because BLAS may sum a product of few
  rows in another order.  Per row, the nearest centre is the first index of
  least ``-2 x.c + |c|^2`` (np.argmin's rule: the lowest index wins, and a
  NaN is taken first), and its squared distance adds ``|x|^2``, floored at
  zero.
- The update adds each row into its cluster's sum in row order.

The nearest-centre step and the sums run as C kernels (``_native``) where
they can be built, and as the numpy steps they copy elsewhere; both give
the same bits.

With the kernels, every Lloyd step after the first is pruned as in Hamerly
(SDM 2010, "Making k-means even faster"), with the same bits.  Each sample
keeps an upper bound U on its distance to its own centre and a lower bound
L on its distance to every other centre.  When the centres move, U grows by
its own centre's drift and L shrinks by the largest drift of any other
centre.  A sample with ``L^2 - U^2 > margin`` keeps its label.  If its
centre kept its bits, it keeps its distance's bits too; if not, its
distance comes from a product with only the moved centres, padded to two
columns (BLAS may compute a single column as a matrix-vector product,
summed in another order).  Every other sample goes through the product
with every centre, which gives it fresh bounds: U from its distance, L
from the second least value.  Both products run on samples' rows gathered
into a block of the full step's row count, and a product element takes
the same bits in any such block, over any 2 to k columns: that premise
about BLAS has a test of its own.  A step is pruned only when its products
and gathers cost less than the full step's; the bookkeeping is O(n) and
holds no n x k array.

The margin is proven, not tuned.  Let u = 2^-53 and g_n = n u / (1 - n u),
and let S >= |x| + |c| for every sample x and centre c: the largest
computed norms, summed and widened by 1 + (d + 4) 2^-52.

- In any order of summation, FMA or not, the computed x.c is within
  g_d |x| |c| of the exact product, and |c|^2 within g_d |c|^2; -2 x.c is
  exact.  So the computed ``v = -2 x.c + |c|^2`` is within
  g_{d+1} (2 |x| |c| + |c|^2) <= g_{d+1} S^2 of the exact value, and the
  computed ``v + |x|^2`` within g_{d+2} S^2 < eps = (d + 3) 2^-52 S^2 of
  the squared distance D.  The floor at zero only brings it closer.
- So D <= best + eps for the own centre, and D >= second - eps for any
  other, where second is the second least v plus |x|^2 (rounding is
  monotone): U = sqrt(best + eps) and L = sqrt(second - eps) are bounds.
- If L^2 - U^2 > 2 g_{d+1} S^2, every other centre's v exceeds the own
  centre's v, so the first index of least v is unchanged.  The computed
  test ``fl(fl(L L) - fl(U U)) > margin``, with L <= S (it bounds a
  distance), implies L^2 - U^2 > margin / (1 + u) - 2.01 u S^2.  So
  ``margin = (d + 5) 2^-52 S^2 = (2 d + 10) u S^2`` suffices, with room
  for the rounding of eps, margin and S themselves.
- Every computed bound is multiplied by 1 + 2^-50 (U) or 1 - 2^-50 (L)
  after the few operations that made it, each of which rounds by at most
  a factor 1 +- 2^-53; so U stays above and L below.  A drift |c' - c| is
  computed to within g_{d+2} relative, plus under 2^-520 absolute where
  squares underflow; it is used as (drift + 2^-500)(1 + (d + 4) 2^-52).
- With S in [2^-400, 2^400], underflow adds less than 2^-1000 to any of
  these sums, far under u S^2, and nothing overflows.  Outside that range
  eps and margin are infinite and nothing is pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DataError, EvrectError

_SEED_ROWS = 1024  # rows per seeding block
_PRODUCT_FLOATS = 1 << 18  # floats per assignment product block (2 MB)


@dataclass(frozen=True)
class Dictionary:
    centroids: np.ndarray        # (K, d')
    feature_space: str           # "rect" | "pca-rect" | "vpca-rect"
    inertia_history: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return len(self.centroids)


def _lower_distances(x: np.ndarray, center: np.ndarray, d2: np.ndarray, buf: np.ndarray) -> None:
    """Lower ``d2`` to each row's squared distance to ``center`` where that
    is less, a block of ``len(buf)`` rows at a time in ``buf``."""
    for s in range(0, len(x), len(buf)):
        blk = x[s : s + len(buf)]
        diff = buf[: len(blk)]
        np.subtract(blk, center, out=diff)
        near = d2[s : s + len(blk)]
        np.minimum(near, np.einsum("ij,ij->i", diff, diff), out=near)


def _block_starts(n: int, rows: int) -> list[int]:
    """The first row of each ``rows``-row block: the last block ends at n."""
    return [*range(0, n - rows, rows), n - rows]


def _nearest(prod: np.ndarray, c2: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centre per row of a product block and its squared distance."""
    prod *= -2.0
    prod += c2
    j = np.argmin(prod, axis=1)
    best = prod[np.arange(len(prod)), j] + x2
    np.maximum(best, 0.0, out=best)
    return j, best


def _assign(
    x: np.ndarray, x2: np.ndarray, centers: np.ndarray, rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per sample and the squared distance to it, given
    each sample's squared norm ``x2``: the full step in numpy."""
    n = len(x)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    c2 = np.einsum("ij,ij->i", centers, centers)
    prod = np.empty((rows, len(centers)), dtype=np.float64)
    for s in _block_starts(n, rows):
        np.matmul(x[s : s + rows], centers.T, out=prod)
        labels[s : s + rows], best[s : s + rows] = _nearest(prod, c2, x2[s : s + rows])
    return labels, best


# gathering one sample's row into a block costs about as much as 32
# columns of its product (timed at d = 49 and 81 on a Xeon)
_GATHER_COLUMNS = 32


def _pruning_pays(n_todo: int, n_own: int, moved: int, k: int, rows: int, blocks: int) -> bool:
    """Whether the pruned step costs less than the full step's ``blocks``
    products of ``rows`` x ``k``: one block of ``rows`` x ``k`` for every
    ``rows`` samples left to do, one of ``rows`` x ``moved`` for every
    ``rows`` samples whose own centre moved, and the gathering of both."""
    cells = (-(-n_todo // rows) * k + -(-n_own // rows) * moved) * rows
    return cells + _GATHER_COLUMNS * (n_todo + n_own) < blocks * k * rows


class _Lloyd:
    """The assignment step of every Lloyd iteration of one ``learn``, with
    its buffers allocated once: Hamerly-pruned on the C kernels, the full
    step in numpy without them."""

    def __init__(self, x: np.ndarray, x2: np.ndarray, k: int) -> None:
        n, d = x.shape
        self.x, self.x2 = x, x2
        self.rows = min(n, max(256, _PRODUCT_FLOATS // k))
        self.labels = np.empty(n, dtype=np.int64)
        self.best = np.empty(n, dtype=np.float64)
        self.upper = np.empty(n, dtype=np.float64)
        self.lower = np.empty(n, dtype=np.float64)
        self.kernels = _native.lloyd(x2, self.labels, self.best, self.upper, self.lower)
        if self.kernels is None:
            return
        self.todo = np.empty(n, dtype=np.int64)
        self.own = np.empty(n, dtype=np.int64)
        self.every = np.arange(n, dtype=np.int64)
        self.prod = np.empty(self.rows * k, dtype=np.float64)
        # gathered rows; the rows past the last sample of a short block stay
        # finite, as zeros or earlier samples
        self.gathered = np.zeros((self.rows, d), dtype=np.float64)
        self.prev = np.empty((k, d), dtype=np.float64)
        self.centers_buf = np.empty((k, d), dtype=np.float64)
        self.col = np.empty(k, dtype=np.int64)
        self.x_norm = math.sqrt(x2.max())
        self.fresh = True

    def assign(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest centroid per sample and the squared distance to it."""
        if self.kernels is None:
            return _assign(self.x, self.x2, centers, self.rows)
        c2 = np.einsum("ij,ij->i", centers, centers)
        eps, margin = self._rounding(c2)
        if self.fresh or not self._pruned(centers, c2, eps, margin):
            self._full(centers, c2, eps)
        self.fresh = False
        self.prev[...] = centers
        return self.labels, self.best

    def _rounding(self, c2: np.ndarray) -> tuple[float, float]:
        """``eps``, the bound on the rounding of a computed squared distance
        ``-2 x.c + |c|^2 + |x|^2``, and ``margin``, the gap in squared
        bounds that proves a label: from d and S, the largest row norm plus
        the largest centre norm, as the module docstring derives them; both
        infinite, so that nothing is proven, unless 2^-400 <= S <= 2^400."""
        d = self.x.shape[1]
        scale = (self.x_norm + math.sqrt(c2.max())) * (1.0 + (d + 4) * 2.0**-52)
        if not 2.0**-400 <= scale <= 2.0**400:
            return math.inf, math.inf
        return (d + 3) * 2.0**-52 * scale**2, (d + 5) * 2.0**-52 * scale**2

    def _full(self, centers: np.ndarray, c2: np.ndarray, eps: float) -> None:
        prod = self.prod.reshape(self.rows, -1)
        for s in _block_starts(len(self.x), self.rows):
            np.matmul(self.x[s : s + self.rows], centers.T, out=prod)
            self.kernels.nearest(prod, c2, self.every[s : s + self.rows], eps)

    def _blocks(self, ids: np.ndarray):
        """Each block of up to ``rows`` of the samples ``ids`` and their rows,
        gathered into the first rows of the reused ``rows``-row buffer."""
        for s in range(0, len(ids), self.rows):
            blk = ids[s : s + self.rows]
            # every index is a sample; mode="raise" would buffer `out`
            np.take(self.x, blk, axis=0, out=self.gathered[: len(blk)], mode="clip")
            yield blk, self.gathered

    def _pruned(self, centers: np.ndarray, c2: np.ndarray, eps: float, margin: float) -> bool:
        """The step with Hamerly's bounds, if it pays; False, having changed
        only the bounds, if not."""
        k, d = centers.shape
        moved = (centers.view(np.int64) != self.prev.view(np.int64)).any(axis=1)
        diff = np.subtract(centers, self.prev, out=self.centers_buf)
        drift = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        drift += 2.0**-500
        drift *= 1.0 + (d + 4) * 2.0**-52
        n_todo, n_own = self.kernels.prune(drift, moved, margin, self.todo, self.own)
        cols = np.flatnonzero(moved)
        if len(cols) == 1:
            # a product of one column may be a matrix-vector product, summed
            # in another order: pad it to two
            cols = np.array([0, cols[0]] if cols[0] else [0, 1])
        blocks = len(_block_starts(len(self.x), self.rows))
        if not _pruning_pays(n_todo, n_own, len(cols), k, self.rows, blocks):
            return False
        prod = self.prod.reshape(self.rows, k)
        for ids, rows in self._blocks(self.todo[:n_todo]):
            np.matmul(rows, centers.T, out=prod)
            self.kernels.nearest(prod, c2, ids, eps)
        if n_own:
            m = len(cols)
            self.col.fill(-1)
            self.col[cols] = np.arange(m)
            sub = np.take(centers, cols, axis=0, out=self.centers_buf[:m], mode="clip")
            prod = self.prod[: self.rows * m].reshape(self.rows, m)
            for ids, rows in self._blocks(self.own[:n_own]):
                np.matmul(rows, sub.T, out=prod)
                self.kernels.own_distance(prod, self.col, c2, ids, eps)
        return True


def _cluster_sums(x: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cluster, the sum of its samples and their count."""
    native = _native.centroid_sums(x, labels, k)
    if native is not None:
        return native
    sums = np.empty((k, x.shape[1]), dtype=np.float64)
    for dim in range(x.shape[1]):
        sums[:, dim] = np.bincount(labels, weights=x[:, dim], minlength=k)
    return sums, np.bincount(labels, minlength=k)


def learn(
    samples: np.ndarray,
    k: int,
    seed: int,
    feature_space: str = "rect",
    max_iter: int = 100,
    tol: float = 1e-4,
) -> Dictionary:
    """Cluster sampled descriptors into a K-entry dictionary.  Lloyd steps
    stop after ``max_iter``, or once the inertia falls by less than ``tol``
    of the step before, or the step before already had inertia 0."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("samples must be a 2-D array")
    if k < 2:
        raise DataError("dictionary size must be at least 2")
    if len(x) < k:
        raise DataError(f"{len(x)} samples cannot seed {k} clusters")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise DataError(f"sample {int(np.argmin(finite))} holds a non-finite value")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(len(x))]
    d2 = np.full(len(x), np.inf)
    buf = np.empty((min(_SEED_ROWS, len(x)), x.shape[1]), dtype=np.float64)
    _lower_distances(x, centers[0], d2, buf)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(len(x), p=d2 / total)
        else:
            idx = rng.integers(len(x))
        centers[j] = x[idx]
        _lower_distances(x, centers[j], d2, buf)

    x2 = np.einsum("ij,ij->i", x, x)
    lloyd = _Lloyd(x, x2, k)
    history: list[float] = []
    prev = None
    for _ in range(max_iter):
        labels, dist2 = lloyd.assign(centers)
        inertia = float(dist2.sum())
        if prev is not None and inertia > prev * (1.0 + 1e-9) + 1e-9:
            raise EvrectError("clustering inertia increased between iterations")
        history.append(inertia)
        sums, counts = _cluster_sums(x, labels, k)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if prev is not None and (prev == 0.0 or (prev - inertia) / prev < tol):
            break
        prev = inertia

    _, first_seen = np.unique(centers, axis=0, return_index=True)
    keep = np.sort(first_seen)
    return Dictionary(
        centroids=centers[keep].copy(),
        feature_space=feature_space,
        inertia_history=tuple(history),
    )


def window_spans(n: int, s: int) -> list[tuple[int, int]]:
    """Non-overlapping [start, end) windows; s = 0 means one whole-span window."""
    if n == 0:
        return []
    if s == 0:
        return [(0, n)]
    return [(i, i + s) for i in range(0, n - s + 1, s)]


def windows_from_leaves(leaves: np.ndarray, k: int, window_size: int) -> list[np.ndarray]:
    """The match counts over the ``k`` leaves of each window of
    :func:`window_spans` over a leaf-index sequence: a trailing partial
    window is dropped, and a window size of 0 gives one whole-sequence
    window."""
    return [np.bincount(leaves[start:end], minlength=k)
            for start, end in window_spans(len(leaves), window_size)]
