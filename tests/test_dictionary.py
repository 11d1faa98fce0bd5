"""Tests for k-means dictionary learning and leaf-histogram accumulation."""

import numpy as np
import pytest
from _oracles import kmeans_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from evrect import _native
from evrect.dictionary import (
    _PRODUCT_FLOATS,
    Dictionary,
    Histogram,
    accumulate,
    learn,
    windows_from_leaves,
)
from evrect.errors import DataError, EvrectError
from evrect.kdtree import build, descend_batch


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
    h = accumulate(tree, pts[3][None, :], window_size=1)
    assert len(h) == 1
    counts = h[0].counts
    assert counts.sum() == 1
    assert counts[descend_batch(tree, pts[3][None, :])[0]] == 1


def test_repeated_descriptor_fills_single_bin():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((16, 5))
    tree = build(pts)
    probe = np.repeat(pts[5][None, :], 100, axis=0)
    h = accumulate(tree, probe, window_size=100)
    assert len(h) == 1
    counts = h[0].counts
    leaf = descend_batch(tree, pts[5][None, :])[0]
    assert counts[leaf] == 100
    assert counts.sum() == 100


def test_accumulate_matches_manual_replay(rng):
    pts = rng.standard_normal((64, 7))
    tree = build(pts)
    descs = rng.standard_normal((1000, 7))
    s = 64
    hists = accumulate(tree, descs, window_size=s)
    leaves = descend_batch(tree, descs)
    n_full = len(descs) // s
    assert len(hists) == n_full
    for w in range(n_full):
        expect = np.bincount(leaves[w * s:(w + 1) * s], minlength=tree.n_points)
        assert np.array_equal(hists[w].counts, expect)
        assert hists[w].counts.sum() == s


def test_window_size_zero_accumulates_whole_sequence(rng):
    pts = rng.standard_normal((32, 4))
    tree = build(pts)
    descs = rng.standard_normal((77, 4))
    hists = accumulate(tree, descs, window_size=0)
    assert len(hists) == 1
    assert hists[0].counts.sum() == 77


def test_trailing_partial_window_dropped(rng):
    leaves = rng.integers(0, 8, size=25)
    hists = windows_from_leaves(leaves, k=8, window_size=10)
    assert len(hists) == 2
    assert all(h.counts.sum() == 10 for h in hists)


def test_histogram_conservation_random(rng):
    for _ in range(20):
        k = int(rng.integers(4, 30))
        s = int(rng.integers(1, 50))
        n = int(rng.integers(s, 400))
        leaves = rng.integers(0, k, size=n)
        for h in windows_from_leaves(leaves, k=k, window_size=s):
            assert h.counts.sum() == s
            assert h.counts.shape == (k,)


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


def test_histogram_window_size_recorded(rng):
    leaves = rng.integers(0, 4, size=30)
    hists = windows_from_leaves(leaves, k=4, window_size=15)
    assert all(isinstance(h, Histogram) and h.window_size == 15 for h in hists)


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


def assert_learn_is_oracle(samples, k, seed, **kw):
    """``learn`` gives the oracle's centroid and inertia bits, with the C
    kernels and with the numpy steps that stand in for them."""
    want = _outcome(lambda: kmeans_oracle(samples, k, seed, **kw))

    def run():
        d = learn(samples, k, seed, **kw)
        return d.centroids, d.inertia_history

    assert _outcome(run) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        assert _outcome(run) == want


def descriptor_like(n, d, seed):
    """Non-negative rows scattered around a few dozen modes, as pooled
    patch descriptors are."""
    rng = np.random.default_rng(seed)
    modes = rng.random((48, d)) ** 3
    return np.abs(modes[rng.integers(48, size=n)] + 0.05 * rng.standard_normal((n, d)))


@pytest.mark.parametrize("n, d, k", [(40_000, 81, 150), (20_000, 49, 16)])
def test_learn_matches_oracle_at_workload_shapes(n, d, k):
    assert_learn_is_oracle(descriptor_like(n, d, seed=k), k, seed=1, max_iter=8)


@pytest.mark.parametrize("k, d", [(150, 81), (16, 49)])
def test_learn_matches_oracle_at_block_edges(k, d):
    rows = max(256, _PRODUCT_FLOATS // k)
    x = descriptor_like(rows + 32, d, seed=d)
    # one product block; then two that overlap in all but a few rows, where
    # a product of just those rows might sum in another order
    for n in (rows, rows + 1, rows + 7, rows + 32):
        assert_learn_is_oracle(x[:n], k, seed=2, max_iter=6)


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
