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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DataError, EvrectError
from .kdtree import KdTree, descend_batch

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


@dataclass(frozen=True)
class Histogram:
    counts: np.ndarray  # (K,) match counts
    window_size: int    # events per window


def _lower_distances(x: np.ndarray, center: np.ndarray, d2: np.ndarray) -> None:
    """Lower ``d2`` to each row's squared distance to ``center`` where that
    is less."""
    buf = np.empty((min(_SEED_ROWS, len(x)), x.shape[1]), dtype=np.float64)
    for s in range(0, len(x), _SEED_ROWS):
        blk = x[s : s + _SEED_ROWS]
        diff = buf[: len(blk)]
        np.subtract(blk, center, out=diff)
        near = d2[s : s + len(blk)]
        np.minimum(near, np.einsum("ij,ij->i", diff, diff), out=near)


def _nearest(prod: np.ndarray, c2: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centre per row of a product block and its squared distance."""
    native = _native.nearest(prod, c2, x2)
    if native is not None:
        return native
    prod *= -2.0
    prod += c2
    j = np.argmin(prod, axis=1)
    best = prod[np.arange(len(prod)), j] + x2
    np.maximum(best, 0.0, out=best)
    return j, best


def _assign(
    x: np.ndarray, x2: np.ndarray, centers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per sample and the squared distance to it, given
    each sample's squared norm ``x2``."""
    n = len(x)
    k = len(centers)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    c2 = np.einsum("ij,ij->i", centers, centers)
    rows = min(n, max(256, _PRODUCT_FLOATS // k))
    prod = np.empty((rows, k), dtype=np.float64)
    # every product has `rows` rows: the last block ends at n
    for s in [*range(0, n - rows, rows), n - rows]:
        np.matmul(x[s : s + rows], centers.T, out=prod)
        labels[s : s + rows], best[s : s + rows] = _nearest(prod, c2, x2[s : s + rows])
    return labels, best


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
    """Cluster sampled descriptors into a K-entry dictionary."""
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
    _lower_distances(x, centers[0], d2)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(len(x), p=d2 / total)
        else:
            idx = rng.integers(len(x))
        centers[j] = x[idx]
        _lower_distances(x, centers[j], d2)

    x2 = np.einsum("ij,ij->i", x, x)
    history: list[float] = []
    prev = None
    for _ in range(max_iter):
        labels, dist2 = _assign(x, x2, centers)
        inertia = float(dist2.sum())
        if prev is not None and inertia > prev * (1.0 + 1e-9) + 1e-9:
            raise EvrectError("clustering inertia increased between iterations")
        history.append(inertia)
        sums, counts = _cluster_sums(x, labels, k)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if prev is not None and prev > 0.0 and (prev - inertia) / prev < tol:
            break
        prev = inertia

    _, first_seen = np.unique(centers, axis=0, return_index=True)
    keep = np.sort(first_seen)
    return Dictionary(
        centroids=centers[keep].copy(),
        feature_space=feature_space,
        inertia_history=tuple(history),
    )


def accumulate(tree: KdTree, descriptors: np.ndarray, window_size: int) -> list[Histogram]:
    """Descend descriptors and bin leaf matches into non-overlapping windows.

    A window size of 0 means one histogram over the whole sequence; a
    trailing partial window is dropped otherwise.
    """
    if window_size < 0:
        raise DataError("window size must be non-negative")
    desc = np.asarray(descriptors, dtype=np.float64)
    if len(desc) == 0:
        return []
    leaves = descend_batch(tree, desc)
    return windows_from_leaves(leaves, tree.n_points, window_size)


def window_spans(n: int, s: int) -> list[tuple[int, int]]:
    """Non-overlapping [start, end) windows; s = 0 means one whole-span window."""
    if n == 0:
        return []
    if s == 0:
        return [(0, n)]
    return [(i, i + s) for i in range(0, n - s + 1, s)]


def windows_from_leaves(leaves: np.ndarray, k: int, window_size: int) -> list[Histogram]:
    """Window the precomputed leaf-index sequence (see accumulate)."""
    return [Histogram(counts=np.bincount(leaves[start:end], minlength=k), window_size=end - start)
            for start, end in window_spans(len(leaves), window_size)]
