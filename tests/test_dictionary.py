"""Tests for k-means dictionary learning and leaf-histogram accumulation."""

from fractions import Fraction

import numpy as np
import pytest
from _oracles import kmeans_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from evrect import _native, dictionary
from evrect.dictionary import (
    _PRODUCT_FLOATS,
    Dictionary,
    learn,
    windows_from_leaves,
)
from evrect.errors import DataError, EvrectError
from evrect.kdtree import build, descend, descend_batch


def blob_samples(rng, centers, per, spread):
    parts = [c + spread * rng.standard_normal((per, len(c))) for c in centers]
    return np.concatenate(parts, axis=0)


def test_two_tight_blobs_recover_means():
    rng = np.random.default_rng(7)
    centers = np.asarray([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
    samples = blob_samples(rng, centers, per=200, spread=1e-4)
    d = learn(samples, k=2, seed=3)
    got = d.centroids[np.argsort(d.centroids[:, 0])]
    means = np.stack([samples[:200].mean(axis=0), samples[200:].mean(axis=0)])
    assert np.abs(got - means).max() < 1e-3


def test_k_equals_sample_count_returns_permutation():
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((6, 4))
    d = learn(samples, k=6, seed=0)
    # every sample is its own cluster, so centroids = samples up to order
    order = np.lexsort(d.centroids.T)
    sample_order = np.lexsort(samples.T)
    assert np.allclose(d.centroids[order], samples[sample_order])


def test_same_seed_reproduces_dictionary():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((300, 8))
    a = learn(samples, k=12, seed=42)
    b = learn(samples, k=12, seed=42)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia_history == b.inertia_history


def test_different_seeds_allowed_to_differ():
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((300, 8))
    a = learn(samples, k=12, seed=0)
    b = learn(samples, k=12, seed=1)
    assert a.centroids.shape == b.centroids.shape == (12, 8)


def test_inertia_history_non_increasing():
    rng = np.random.default_rng(8)
    samples = rng.standard_normal((500, 6))
    d = learn(samples, k=10, seed=2)
    hist = np.asarray(d.inertia_history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) <= 1e-9)


def test_fewer_samples_than_k_rejected():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((5, 3))
    with pytest.raises(DataError, match="5 samples cannot seed 8 clusters"):
        learn(samples, k=8, seed=0)
    with pytest.raises(DataError, match="at least 2"):
        learn(samples, k=1, seed=0)


def test_single_window_histogram_is_one_hot():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((16, 5))
    tree = build(pts)
    h = windows_from_leaves(descend_batch(tree, pts[3][None, :]), tree.n_points, 1)
    assert len(h) == 1
    counts = h[0]
    assert counts.sum() == 1
    assert counts[descend(tree, pts[3])] == 1


def test_repeated_descriptor_fills_single_bin():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((16, 5))
    tree = build(pts)
    probe = np.repeat(pts[5][None, :], 100, axis=0)
    h = windows_from_leaves(descend_batch(tree, probe), tree.n_points, 100)
    assert len(h) == 1
    counts = h[0]
    leaf = descend(tree, pts[5])
    assert counts[leaf] == 100
    assert counts.sum() == 100


def test_accumulate_matches_manual_replay(rng):
    pts = rng.standard_normal((64, 7))
    tree = build(pts)
    descs = rng.standard_normal((1000, 7))
    s = 64
    leaves = descend_batch(tree, descs)
    hists = windows_from_leaves(leaves, tree.n_points, s)
    n_full = len(descs) // s
    assert len(hists) == n_full
    for w in range(n_full):
        expect = np.array([descend(tree, q) for q in descs[w * s:(w + 1) * s]])
        assert np.array_equal(hists[w], np.bincount(expect, minlength=tree.n_points))
        assert hists[w].sum() == s


def test_window_size_zero_accumulates_whole_sequence(rng):
    pts = rng.standard_normal((32, 4))
    tree = build(pts)
    descs = rng.standard_normal((77, 4))
    hists = windows_from_leaves(descend_batch(tree, descs), tree.n_points, 0)
    assert len(hists) == 1
    assert hists[0].sum() == 77


def test_trailing_partial_window_dropped(rng):
    leaves = rng.integers(0, 8, size=25)
    hists = windows_from_leaves(leaves, k=8, window_size=10)
    assert len(hists) == 2
    assert all(h.sum() == 10 for h in hists)


def test_histogram_conservation_random(rng):
    for _ in range(20):
        k = int(rng.integers(4, 30))
        s = int(rng.integers(1, 50))
        n = int(rng.integers(s, 400))
        leaves = rng.integers(0, k, size=n)
        for h in windows_from_leaves(leaves, k=k, window_size=s):
            assert h.sum() == s
            assert h.shape == (k,)


def test_duplicate_samples_collapse_centroids():
    # all mass at two points; duplicates must not crash the update loop
    base = np.asarray([[0.0, 0.0], [5.0, 5.0]])
    samples = np.repeat(base, 50, axis=0)
    d = learn(samples, k=2, seed=1)
    got = d.centroids[np.argsort(d.centroids[:, 0])]
    assert np.allclose(got, base)


def test_dictionary_metadata(rng):
    samples = rng.standard_normal((200, 5))
    d = learn(samples, k=8, seed=0, feature_space="pca-rect")
    assert d.k == 8
    assert d.feature_space == "pca-rect"
    assert isinstance(d, Dictionary)
    assert isinstance(d.inertia_history, tuple)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_rejected(bad):
    samples = np.random.default_rng(13).standard_normal((50, 4))
    samples[17, 2] = bad
    with pytest.raises(DataError, match="sample 17 holds a non-finite value"):
        learn(samples, k=4, seed=0)


def _outcome(fn):
    try:
        centroids, history = fn()
    except EvrectError as exc:
        return type(exc), str(exc)
    return centroids.shape, centroids.tobytes(), history


class KernelLog:
    """What the k-means kernels were asked to do during one ``learn``: the
    sample rows multiplied by every centre, the column count of each
    own-distance product, the moved-centre count of each pruning pass, and
    whether some cluster was ever empty."""

    def __init__(self, mp):
        self.full_rows = 0
        self.own_columns = []
        self.moved = []
        self.empty_cluster = False
        lloyd = _native.Lloyd
        nearest, own_distance, prune = lloyd.nearest, lloyd.own_distance, lloyd.prune
        centroid_sums = _native.centroid_sums

        def counted_nearest(kernels, prod, c2, idx, eps):
            self.full_rows += len(idx)
            return nearest(kernels, prod, c2, idx, eps)

        def counted_own_distance(kernels, prod, col, c2, idx, eps):
            self.own_columns.append(prod.shape[1])
            return own_distance(kernels, prod, col, c2, idx, eps)

        def counted_prune(kernels, drift, moved, *args):
            self.moved.append(int(moved.sum()))
            return prune(kernels, drift, moved, *args)

        def counted_sums(x, labels, k):
            out = centroid_sums(x, labels, k)
            self.empty_cluster |= out is not None and bool((out[1] == 0).any())
            return out

        mp.setattr(lloyd, "nearest", counted_nearest)
        mp.setattr(lloyd, "own_distance", counted_own_distance)
        mp.setattr(lloyd, "prune", counted_prune)
        mp.setattr(_native, "centroid_sums", counted_sums)


def assert_learn_is_oracle(samples, k, seed, **kw):
    """``learn`` gives the oracle's centroid and inertia bits: with the C
    kernels, pruning where it pays; with the kernels pruning every step
    after the first; and with the numpy steps that stand in for them.
    Returns the oracle's iteration count and the :class:`KernelLog` of the
    two kernel runs, or None where the kernels cannot be built."""
    want = _outcome(lambda: kmeans_oracle(samples, k, seed, **kw))

    def run():
        d = learn(samples, k, seed, **kw)
        return d.centroids, d.inertia_history

    logs = []
    for always in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            logs.append(KernelLog(mp))
            if always:
                mp.setattr(dictionary, "_pruning_pays", lambda *counts: True)
            assert _outcome(run) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        assert _outcome(run) == want
    iterations = len(want[2]) if len(want) == 3 else 0
    return iterations, (logs if _native.load() is not None else None)


def descriptor_like(n, d, seed, modes=48):
    """Non-negative rows scattered around ``modes`` modes, as pooled patch
    descriptors are."""
    rng = np.random.default_rng(seed)
    centres = rng.random((modes, d)) ** 3
    return np.abs(centres[rng.integers(modes, size=n)] + 0.05 * rng.standard_normal((n, d)))


@pytest.mark.parametrize("n, d, k", [(40_000, 81, 150), (20_000, 49, 16)])
def test_learn_matches_oracle_at_workload_shapes(n, d, k):
    # more modes than centres, so that clusters settle a few at a time,
    # as on recorded descriptors, and the bounds prove most labels
    iterations, logs = assert_learn_is_oracle(descriptor_like(n, d, seed=k, modes=600), k, seed=1)
    assert iterations > 8
    if logs is None:
        return
    pays, always = logs
    assert always.full_rows < n * iterations
    assert always.own_columns and min(always.own_columns) < k
    if k == 150:
        # at k = 16 the two 16,384-row blocks rarely leave one to save
        assert pays.full_rows < n * iterations


@pytest.mark.parametrize("k, d", [(150, 81), (16, 49)])
def test_learn_matches_oracle_at_block_edges(k, d):
    rows = max(256, _PRODUCT_FLOATS // k)
    x = descriptor_like(rows + 32, d, seed=d)
    # one product block; then two that overlap in all but a few rows, where
    # a product of just those rows might sum in another order
    for n in (rows, rows + 1, rows + 7, rows + 32):
        assert_learn_is_oracle(x[:n], k, seed=2, max_iter=6)


@pytest.mark.parametrize("k", [2, 16, 150])
def test_learn_matches_oracle_on_lattice_ties(k):
    """4,000 rows on a 3-level lattice of 81 points, one in 40 moved to a
    far point: most rows repeat and most distances tie.  At k = 2 a seed on
    the far point keeps its cluster, so one centre moves; at k = 150 there
    are more centres than points, so clusters go empty, every row sits on a
    centre from the start, and a run stops once an inertia of 0 repeats."""
    x = np.random.default_rng(k).integers(0, 3, size=(4_000, 4)) / 2.0
    x[::40] = 4.0
    iterations, logs = zip(*(assert_learn_is_oracle(x, k, seed) for seed in range(5)))
    if k == 150:
        assert iterations == (2,) * 5
    if logs[0] is None:
        return
    always = [log for _, log in logs]
    # every run ends on a step where no centre moved
    assert all(log.moved[-1] == 0 for log in always)
    if k == 2:
        assert any(log.moved[0] == 1 for log in always)
        assert all(m == 2 for log in always for m in log.own_columns)
    elif k == 16:
        assert 2 in {m for log in always for m in log.own_columns}
    else:
        assert all(log.empty_cluster for log in always)


@pytest.mark.parametrize("k, d", [(16, 49), (150, 81)])
def test_blas_gives_each_product_the_same_bits_in_any_padded_block(k, d):
    """The premise of the pruned Lloyd step: a product x . c takes the same
    bits in a block of gathered rows, padded to the full step's row count,
    over any 2 to k of the centres, as in the full step's contiguous
    blocks.  (One column may be a matrix-vector product, and fewer rows
    another kernel; neither is used.)"""
    rows = max(256, _PRODUCT_FLOATS // k)
    x = descriptor_like(2 * rows, d, seed=d)
    rng = np.random.default_rng(k)
    centers = x[rng.choice(len(x), size=k, replace=False)]
    full = np.empty((len(x), k))
    for s in (0, rows):
        np.matmul(x[s : s + rows], centers.T, out=full[s : s + rows])
    gathered = np.zeros((rows, d))
    for m in range(2, k + 1):
        ids = np.sort(rng.choice(len(x), size=int(rng.integers(1, rows + 1)), replace=False))
        cols = np.sort(rng.choice(k, size=m, replace=False))
        gathered[: len(ids)] = x[ids]
        prod = gathered @ centers[cols].T
        assert prod[: len(ids)].tobytes() == full[np.ix_(ids, cols)].tobytes(), (m, len(ids))


@st.composite
def tie_prone_samples(draw):
    """Few distinct values, so rows repeat, distances tie and clusters go
    empty; k runs up to the row count."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
    k = draw(st.one_of(st.just(n), st.integers(2, n)))
    return np.asarray(values, dtype=np.float64).reshape(n, d) / 3.0, k, draw(st.integers(0, 9))


@settings(max_examples=200, deadline=None)
@given(tie_prone_samples())
def test_learn_matches_oracle_on_ties(case):
    samples, k, seed = case
    assert_learn_is_oracle(samples, k, seed)


def _prune_reference(labels, upper, lower, drift, moved, margin):
    """evrect_prune's rule in Python floats, which round as C doubles do."""
    widen = 2.0**-50
    far = int(np.argmax(drift))
    next_drift = float(np.delete(drift, far).max())
    todo, own, up, low = [], [], [], []
    for i, a in enumerate(labels):
        u = (float(upper[i]) + float(drift[a])) * (1.0 + widen)
        lo = (float(lower[i]) - (next_drift if a == far else float(drift[far]))) * (1.0 - widen)
        up.append(u)
        low.append(lo)
        if lo > u and lo * lo - u * u > margin:
            if moved[a]:
                own.append(i)
        else:
            todo.append(i)
    return todo, own, up, low


@pytest.mark.skipif(_native.load() is None, reason="no C kernels here")
@pytest.mark.parametrize("seed", range(5))
def test_prune_moves_each_bound_by_the_drift_it_must(seed):
    rng = np.random.default_rng(seed)
    n, k = 500, 6
    labels = rng.integers(0, k, size=n)
    upper = rng.random(n) * 2.0
    lower = upper + rng.random(n) * 3.0
    lower[::7] = 0.0
    drift = rng.random(k) * 0.5
    drift[rng.integers(k)] *= 4.0
    drift[rng.integers(k)] = 0.0
    moved = drift > 0.0
    margin = float(rng.choice([0.0, 1e-3, 0.5]))
    x2 = np.zeros(n)
    best = np.zeros(n)
    up, low = upper.copy(), lower.copy()
    kernels = _native.lloyd(x2, labels.astype(np.int64), best, up, low)
    todo = np.empty(n, dtype=np.int64)
    own = np.empty(n, dtype=np.int64)
    n_todo, n_own = kernels.prune(drift, moved, margin, todo, own)
    want_todo, want_own, want_up, want_low = _prune_reference(
        labels, upper, lower, drift, moved, margin)
    assert todo[:n_todo].tolist() == want_todo
    assert own[:n_own].tolist() == want_own
    assert up.tolist() == want_up and low.tolist() == want_low
    assert 0 < n_todo < n and 0 < n_own


def _exact_distance(x, c):
    return sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(x, c))


@pytest.mark.skipif(_native.load() is None, reason="no C kernels here")
def test_bounds_hold_the_exact_distances(monkeypatch):
    """Rows a hair from a centre, where the expanded form cancels almost
    all its bits, and rows half way between two: after a full step and
    after a pruned one, every upper bound is at least the exact distance
    to the row's own centre and every lower bound at most the exact
    distance to any other, and the labels and distances are the full
    step's bits."""
    monkeypatch.setattr(dictionary, "_pruning_pays", lambda *counts: True)
    rng = np.random.default_rng(3)
    k, d = 5, 8
    centers = rng.random((k, d)) * 4.0
    near = centers[rng.integers(k, size=150)] + 1e-7 * rng.standard_normal((150, d))
    pairs = rng.integers(k, size=(100, 2))
    halfway = (centers[pairs[:, 0]] + centers[pairs[:, 1]]) / 2.0 + 1e-9 * rng.standard_normal((100, d))
    x = np.concatenate([near, halfway, rng.random((50, d)) * 4.0])
    x2 = np.einsum("ij,ij->i", x, x)
    lloyd = dictionary._Lloyd(x, x2, k)
    for step in range(2):
        labels, best = lloyd.assign(centers)
        want_labels, want_best = dictionary._assign(x, x2, centers, lloyd.rows)
        assert labels.tolist() == want_labels.tolist()
        assert best.tobytes() == want_best.tobytes()
        for i, row in enumerate(x):
            exact = [_exact_distance(row, c) for c in centers]
            assert Fraction(float(lloyd.upper[i])) ** 2 >= exact[labels[i]], (step, i)
            low = max(float(lloyd.lower[i]), 0.0)
            assert all(Fraction(low) ** 2 <= e for j, e in enumerate(exact) if j != labels[i]), (step, i)
        # two centres keep their bits, the others move a little
        centers = centers.copy()
        centers[2:] += 1e-3 * rng.standard_normal((k - 2, d))
