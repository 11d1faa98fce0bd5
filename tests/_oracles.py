"""Independent reference implementations the test suite checks against.

Everything here is deliberately written in the most literal way possible
(full-history scans, prefix sums, double loops) so a disagreement with
the streaming code points at the streaming code.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from evrect.errors import EvrectError
from evrect.events import EventStream, SensorGeometry


def random_stream(
    rng: np.random.Generator,
    n: int,
    geometry: SensorGeometry,
    dt_choices=(0, 0, 1, 2, 5, 50, 500, 1000, 1500, 5000),
) -> EventStream:
    """Random events with tie-prone timestamps (repeats and exact threshold gaps)."""
    xs = rng.integers(0, geometry.n_cols, size=n)
    ys = rng.integers(0, geometry.n_rows, size=n)
    ts = np.cumsum(rng.choice(np.asarray(dt_choices, dtype=np.int64), size=n))
    ps = rng.integers(0, 2, size=n)
    return EventStream(geometry, xs, ys, ts, ps, validate=False)


def refractory_oracle(stream: EventStream, theta_ref_us: int) -> list[bool]:
    """Accept an event only if every prior same-pixel event is more than
    theta_ref_us older; scans the pixel's full input history."""
    history: dict[tuple[int, int], list[int]] = defaultdict(list)
    decisions: list[bool] = []
    for x, y, t in zip(stream.x.tolist(), stream.y.tolist(), stream.t.tolist()):
        prior = history[(x, y)]
        decisions.append(all(t - tj > theta_ref_us for tj in prior))
        prior.append(t)
    return decisions


def noise_oracle(stream: EventStream, theta_noise_us: int) -> list[bool]:
    """Accept an event if any prior event at one of the 8 surrounding
    pixels is less than theta_noise_us older; scans full histories."""
    history: dict[tuple[int, int], list[int]] = defaultdict(list)
    decisions: list[bool] = []
    offsets = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
    for x, y, t in zip(stream.x.tolist(), stream.y.tolist(), stream.t.tolist()):
        ok = False
        for dx, dy in offsets:
            prior = history.get((x + dx, y + dy))
            if prior and any(t - tj < theta_noise_us for tj in reversed(prior)):
                ok = True
                break
        decisions.append(ok)
        history[(x, y)].append(t)
    return decisions


def cascade_oracle(stream: EventStream, theta_noise_us: int, theta_ref_us: int) -> list[int]:
    """Indices surviving the refractory filter composed into the noise filter."""
    ref = refractory_oracle(stream, theta_ref_us)
    survivors = np.flatnonzero(ref)
    stage2 = stream.slice(survivors)
    noise = noise_oracle(stage2, theta_noise_us)
    return [int(survivors[i]) for i in range(len(survivors)) if noise[i]]


def batch_pooled_oracle(
    xs, ys, s: int, n_rows: int, n_cols: int, p: int, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Counts and raw pooled sums of the last s events, from scratch."""
    counts = np.zeros((n_rows, n_cols), dtype=np.int64)
    for x, y in list(zip(xs, ys))[-s:]:
        counts[y, x] += 1
    rows = -(-n_rows // p)
    cols = -(-n_cols // q)
    pooled = np.zeros((rows, cols), dtype=np.int64)
    for r in range(n_rows):
        for c in range(n_cols):
            pooled[r // p, c // q] += counts[r, c]
    return counts, pooled


def patch_oracle(pooled: np.ndarray, x: int, y: int, p: int, q: int, w: int, normalize: bool) -> np.ndarray:
    """Zero-padded w-by-w patch around the event's pooled cell, averaged."""
    half = w // 2
    rc, cc = y // p, x // q
    out = np.zeros((w, w), dtype=np.float64)
    for i in range(w):
        for j in range(w):
            r = rc - half + i
            c = cc - half + j
            if 0 <= r < pooled.shape[0] and 0 <= c < pooled.shape[1]:
                out[i, j] = pooled[r, c]
    vals = out.ravel() / (p * q)
    if normalize:
        norm = math.sqrt(float(vals @ vals))
        if norm > 0.0:
            vals = vals / norm
    return vals


def power_eigh(x: np.ndarray, k: int, iters: int = 800, seed: int = 0):
    """Top-k eigenpairs of the population covariance by deflated power
    iteration; returns (eigenvalues, components, mean)."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / len(x)
    rng = np.random.default_rng(seed)
    d = cov.shape[0]
    deflated = cov.copy()
    vals = []
    comps = []
    for _ in range(k):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = deflated @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            v = w / norm
        lam = float(v @ deflated @ v)
        vals.append(lam)
        comps.append(v.copy())
        deflated = deflated - lam * np.outer(v, v)
    return np.asarray(vals), np.asarray(comps), mean


def reconstruction_error(x: np.ndarray, mean: np.ndarray, basis: np.ndarray) -> float:
    """Mean squared residual of projecting onto the rows of basis."""
    centered = np.asarray(x, dtype=np.float64) - mean
    residual = centered - (centered @ basis.T) @ basis
    return float(np.mean(np.einsum("ij,ij->i", residual, residual)))


def quadratic_nn(points: np.ndarray, query: np.ndarray) -> int:
    """Literal double-loop nearest neighbor with the lowest-index tie rule."""
    best_i = -1
    best_d = math.inf
    q = [float(v) for v in query]
    for i, row in enumerate(np.asarray(points, dtype=np.float64)):
        d = 0.0
        for a, b in zip(row, q):
            d += (float(a) - b) ** 2
        if d < best_d:
            best_d = d
            best_i = i
    return best_i


def alg1_replay(hits: list[tuple[int, int]]):
    """Final (threshold, fifo, mean) of the running-max heat tracker,
    derived from per-pixel count trajectories instead of the sequential
    threshold rule.

    The threshold always equals the running maximum cell count.  The
    FIFO was last cleared at the final event that raised the maximum,
    which then pushed itself; afterwards exactly the events whose cell
    reaches (without exceeding) the final maximum are appended.
    """
    counts: dict[tuple[int, int], int] = defaultdict(int)
    post = []
    run_max = 0
    last_rise = None
    for i, (x, y) in enumerate(hits):
        counts[(x, y)] += 1
        c = counts[(x, y)]
        post.append(c)
        if c > run_max:
            run_max = c
            last_rise = i
    if last_rise is None:
        return 0, [], None
    fifo = [hits[i] for i in range(last_rise, len(hits)) if post[i] == run_max]
    n = len(fifo)
    sx = sum(c[0] for c in fifo)
    sy = sum(c[1] for c in fifo)
    mean = (math.floor(sx / n + 0.5), math.floor(sy / n + 0.5))
    return run_max, fifo, mean


def window_sums(cols: np.ndarray, s: int) -> np.ndarray:
    """Per-step sliding sums over the trailing s rows via prefix sums.

    Integer input stays exact in int64; float input is accumulated in
    extended precision.
    """
    arr = np.asarray(cols)
    if arr.dtype.kind in "iu":
        acc = np.cumsum(arr.astype(np.int64), axis=0)
        out = acc.copy()
        if s < len(arr):
            out[s:] = acc[s:] - acc[:-s]
        return out
    acc = np.cumsum(arr.astype(np.longdouble), axis=0)
    out = acc.copy()
    if s < len(arr):
        out[s:] = acc[s:] - acc[:-s]
    return out.astype(np.float64)


_KMEANS_ASSIGN_BLOCK = 1 << 22  # floats per distance block, keeps memory flat


def _kmeans_assign_oracle(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per sample and the squared distance to it."""
    n = len(x)
    k = len(centers)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    c2 = np.einsum("ij,ij->i", centers, centers)
    chunk = max(1, _KMEANS_ASSIGN_BLOCK // max(k, 1))
    for s in range(0, n, chunk):
        blk = x[s : s + chunk]
        d = blk @ centers.T
        d *= -2.0
        d += c2
        j = np.argmin(d, axis=1)
        labels[s : s + chunk] = j
        x2 = np.einsum("ij,ij->i", blk, blk)
        best[s : s + chunk] = d[np.arange(len(blk)), j] + x2
    np.maximum(best, 0.0, out=best)
    return labels, best


def kmeans_oracle(
    samples: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-4,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """The whole-matrix k-means that ``evrect.dictionary.learn`` computes in
    blocks: k-means++ seeding on full ``x - c`` differences, Lloyd steps
    with one product per chunk of about 4M floats, and per-dimension
    ``bincount`` sums.  Returns the collapsed centroids and the inertia
    history."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    rng = np.random.default_rng(seed)

    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(len(x))]
    diff = x - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(len(x), p=d2 / total)
        else:
            idx = rng.integers(len(x))
        centers[j] = x[idx]
        diff = x - centers[j]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)

    history: list[float] = []
    prev = None
    for _ in range(max_iter):
        labels, dist2 = _kmeans_assign_oracle(x, centers)
        inertia = float(dist2.sum())
        if prev is not None and inertia > prev * (1.0 + 1e-9) + 1e-9:
            raise EvrectError("clustering inertia increased between iterations")
        history.append(inertia)
        counts = np.bincount(labels, minlength=k)
        sums = np.empty_like(centers)
        for dim in range(x.shape[1]):
            sums[:, dim] = np.bincount(labels, weights=x[:, dim], minlength=k)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if prev is not None and (prev == 0.0 or (prev - inertia) / prev < tol):
            break
        prev = inertia

    _, first_seen = np.unique(centers, axis=0, return_index=True)
    keep = np.sort(first_seen)
    return centers[keep].copy(), tuple(history)
