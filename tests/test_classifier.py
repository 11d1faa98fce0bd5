"""Tests for the linear one-vs-all SVM and the streaming window scorer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrect.classifier import (
    StreamScorer,
    SvmModel,
    classify_batch,
    export_stream,
    normalize_l1,
    scores_of,
    train,
)
from evrect.errors import DataError

from _oracles import window_sums


def one_hot_corpus(rng, n_per_class, k, classes):
    """Histograms whose support never overlaps across classes."""
    hists, labels = [], []
    per = k // len(classes)
    for c, name in enumerate(classes):
        for _ in range(n_per_class):
            h = np.zeros(k)
            bins = c * per + rng.integers(0, per, size=6)
            np.add.at(h, bins, rng.integers(1, 20, size=6))
            hists.append(h)
            labels.append(name)
    return np.asarray(hists), labels


def test_disjoint_support_reaches_perfect_training_accuracy(rng):
    classes = ("bar", "cross", "ring")
    hists, labels = one_hot_corpus(rng, n_per_class=30, k=30, classes=classes)
    model = train(hists, labels, epochs=60, seed=0)
    got, _ = classify_batch(model, hists)
    assert got == labels


def test_identical_histograms_random_labels_stay_near_chance(rng):
    # nothing to learn: accuracy must sit close to 1/C
    n, c = 500, 4
    hists = np.tile(rng.integers(1, 10, size=12), (n, 1))
    labels = [f"c{int(i)}" for i in rng.integers(0, c, size=n)]
    model = train(hists, labels, epochs=10, seed=1)
    got, _ = classify_batch(model, hists)
    acc = np.mean([g == l for g, l in zip(got, labels)])
    assert abs(acc - 1.0 / c) <= 0.10


def test_duplicated_training_set_keeps_probe_decision(rng):
    classes = ("a", "b")
    hists, labels = one_hot_corpus(rng, n_per_class=20, k=16, classes=classes)
    probe = hists[3] + hists[5]
    m1 = train(hists, labels, epochs=40, seed=0)
    m2 = train(np.concatenate([hists, hists]), labels + labels, epochs=40, seed=0)
    assert classify_batch(m1, probe[None])[0] == classify_batch(m2, probe[None])[0]


def test_identity_weights_pick_matching_bin():
    names = tuple(f"c{i}" for i in range(4))
    model = SvmModel(weights=np.eye(4), bias=np.zeros(4), class_names=names)
    h = np.zeros(4)
    h[2] = 7.0
    labels, scores = classify_batch(model, h[None])
    assert labels == ["c2"]
    assert scores[0].argmax() == 2


def test_zero_model_breaks_ties_toward_lowest_index(rng):
    names = ("first", "second", "third")
    model = SvmModel(weights=np.zeros((3, 8)), bias=np.zeros(3), class_names=names)
    labels, scores = classify_batch(model, rng.integers(1, 5, size=(1, 8)).astype(float))
    assert labels == ["first"]
    assert np.all(scores == 0.0)


def test_scores_match_direct_dot_product(rng):
    w = rng.standard_normal((5, 9))
    b = rng.standard_normal(5)
    model = SvmModel(weights=w, bias=b, class_names=tuple("abcde"))
    h = rng.integers(0, 30, size=9).astype(np.float64)
    h[0] += 1
    expect = (h / h.sum()) @ w.T + b
    assert np.allclose(scores_of(model, h), expect, rtol=0, atol=1e-12)


def test_training_is_deterministic(rng):
    hists, labels = one_hot_corpus(rng, n_per_class=10, k=12, classes=("x", "y"))
    a = train(hists, labels, epochs=15, seed=9)
    b = train(hists, labels, epochs=15, seed=9)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_train_input_validation(rng):
    hists = rng.integers(1, 5, size=(6, 4)).astype(float)
    with pytest.raises(DataError, match="disagree"):
        train(hists, ["a", "b", "a"])
    with pytest.raises(DataError, match="at least 2 classes"):
        train(hists, ["a"] * 6)
    with pytest.raises(DataError, match="has no training samples"):
        train(hists, ["a", "a", "a", "b", "b", "b"], class_names=("a", "b", "c"))
    with pytest.raises(DataError, match="not among classes"):
        train(hists, ["a", "a", "a", "b", "b", "z"], class_names=("a", "b"))
    with pytest.raises(DataError, match="cannot be normalized"):
        normalize_l1(np.zeros(4))


def stream_fixture(rng, fixed_point, k=20, c=3, s=500):
    w = rng.standard_normal((c, k))
    b = rng.standard_normal(c)
    model = SvmModel(weights=w, bias=b, class_names=tuple(f"c{i}" for i in range(c)))
    return export_stream(model, window_size=s, fixed_point=fixed_point)


def trailing_window_sums(sm, leaves):
    """The class sums over the last ``window_size`` of ``leaves``, by the
    prefix-sum oracle."""
    return window_sums(sm.weights.T[np.asarray(leaves)], sm.window_size)[-1]


def test_stream_weights_fold_bias_and_window():
    model = SvmModel(
        weights=np.asarray([[2.0, 4.0], [0.0, 8.0]]),
        bias=np.asarray([1.0, -1.0]),
        class_names=("p", "q"),
    )
    sm = export_stream(model, window_size=4)
    assert np.allclose(sm.weights, np.asarray([[0.75, 1.25], [-0.25, 1.75]]))
    fx = export_stream(model, window_size=4, fixed_point=True, frac_bits=8)
    assert fx.weights.dtype == np.int64
    assert np.array_equal(fx.weights, np.asarray([[192, 320], [-64, 448]]))


def test_full_window_sums_equal_batch_scores(rng):
    for fixed in (True, False):
        sm = stream_fixture(rng, fixed_point=fixed, s=200)
        leaves = rng.integers(0, 20, size=200)
        scorer = StreamScorer(sm)
        for leaf in leaves:
            scorer.push(int(leaf))
        expect = trailing_window_sums(sm, leaves)
        if fixed:
            assert np.array_equal(scorer.sums, expect)
        else:
            assert np.allclose(scorer.sums, expect, rtol=0, atol=1e-9)


def test_partial_window_sums_before_first_eviction(rng):
    sm = stream_fixture(rng, fixed_point=True, s=100)
    leaves = rng.integers(0, 20, size=37)
    scorer = StreamScorer(sm)
    for leaf in leaves:
        scorer.push(int(leaf))
    assert np.array_equal(scorer.sums, trailing_window_sums(sm, leaves))


def test_eviction_keeps_trailing_window_only(rng):
    sm = stream_fixture(rng, fixed_point=True, s=50)
    leaves = rng.integers(0, 20, size=137)
    scorer = StreamScorer(sm)
    for leaf in leaves:
        scorer.push(int(leaf))
    assert np.array_equal(scorer.sums, trailing_window_sums(sm, leaves))


@pytest.mark.parametrize("fixed", [True, False])
def test_long_replay_matches_prefix_sum_oracle(rng, fixed):
    sm = stream_fixture(rng, fixed_point=fixed, k=32, c=4, s=700)
    leaves = rng.integers(0, 32, size=100_000)
    cols = sm.weights.T[leaves]
    expect = window_sums(cols, 700)
    scorer = StreamScorer(sm)
    got = np.empty_like(expect)
    for i, leaf in enumerate(leaves):
        scorer.push(int(leaf))
        got[i] = scorer.sums
    if fixed:
        assert np.array_equal(got, expect)
    else:
        assert np.abs(got - expect).max() <= 1e-9


def test_push_returns_running_argmax(rng):
    sm = stream_fixture(rng, fixed_point=False, s=40)
    scorer = StreamScorer(sm)
    for leaf in rng.integers(0, 20, size=90):
        idx = scorer.push(int(leaf))
        assert idx == int(np.argmax(scorer.sums))
        assert scorer.label == sm.class_names[idx]


def test_export_stream_validation(rng):
    model = SvmModel(
        weights=rng.standard_normal((2, 4)),
        bias=np.zeros(2),
        class_names=("a", "b"),
    )
    with pytest.raises(DataError, match="at least 1"):
        export_stream(model, window_size=0)
    with pytest.raises(DataError, match="frac_bits"):
        export_stream(model, window_size=10, fixed_point=True, frac_bits=0)
    with pytest.raises(DataError, match="frac_bits"):
        export_stream(model, window_size=10, fixed_point=True, frac_bits=41)


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=50), min_size=6, max_size=6),
    scale=st.integers(min_value=1, max_value=1000),
)
def test_decision_ignores_histogram_scale(counts, scale):
    h = np.asarray(counts, dtype=np.float64)
    if h.sum() == 0:
        h[0] = 1
    w = np.random.default_rng(77).standard_normal((3, 6))
    model = SvmModel(weights=w, bias=np.zeros(3), class_names=("a", "b", "c"))
    assert classify_batch(model, h[None])[0] == classify_batch(model, h[None] * scale)[0]
