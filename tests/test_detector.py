"""Tests for landmark selection, the heat-map tracker, and detection metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrect.detector import (
    Box,
    DetectorModel,
    HeatMapTracker,
    TruthWindow,
    compute_stats,
    evaluate,
    heat_spot,
    precision_recall,
    select_landmarks,
)
from evrect.errors import DataError
from evrect.events import SensorGeometry

from _oracles import alg1_replay


def test_only_target_firing_feature_selected():
    stats = compute_stats(np.asarray([10, 0]), np.asarray([0, 10]))
    model = select_landmarks(stats, 1)
    assert model.landmarks == (0,)
    assert stats.ratios[1] == 0.0


def test_symmetric_counts_tie_to_lowest_indices():
    counts = np.asarray([3.0, 5.0, 2.0, 8.0])
    stats = compute_stats(counts, counts)
    assert np.allclose(stats.ratios, 1.0)
    model = select_landmarks(stats, 2)
    assert model.landmarks == (0, 1)


def test_selection_matches_bruteforce_recomputation(rng):
    pos = rng.integers(0, 40, size=50).astype(np.float64)
    neg = rng.integers(0, 40, size=50).astype(np.float64)
    pos[0] += 1
    stats = compute_stats(pos, neg)
    neg_eff = np.where(neg == 0, 1.0, neg)
    ratios = (pos / pos.sum() * pos) / (neg_eff / neg_eff.sum() * neg_eff)
    assert np.allclose(stats.ratios, ratios)
    got = select_landmarks(stats, 5).landmarks
    expect = tuple(int(i) for i in np.argsort(-ratios, kind="stable")[:5])
    assert got == expect


def test_selection_invariant_under_neg_scaling(rng):
    # with every non-target count at least 1 the zero-lift never engages,
    # so scaling the non-target side rescales all ratios uniformly
    pos = rng.integers(1, 60, size=30).astype(np.float64)
    neg = rng.integers(1, 60, size=30).astype(np.float64)
    base = select_landmarks(compute_stats(pos, neg), 7).landmarks
    for c in (2.0, 7.0, 100.0):
        scaled = select_landmarks(compute_stats(pos, neg * c), 7).landmarks
        assert scaled == base


def test_compute_stats_validation():
    with pytest.raises(DataError, match="1-D and equal length"):
        compute_stats(np.zeros(3), np.zeros(4))
    with pytest.raises(DataError, match="non-negative"):
        compute_stats(np.asarray([1.0, -1.0]), np.zeros(2))
    with pytest.raises(DataError, match="no target matches"):
        compute_stats(np.zeros(4), np.ones(4))


def test_landmark_count_bounds(rng):
    stats = compute_stats(rng.integers(1, 9, size=6).astype(float), np.ones(6))
    with pytest.raises(DataError, match="outside"):
        select_landmarks(stats, 0)
    with pytest.raises(DataError, match="outside"):
        select_landmarks(stats, 7)
    full = select_landmarks(stats, 6)
    assert sorted(full.landmarks) == list(range(6))
    assert full.count == 6


def test_repeated_pixel_trace():
    tracker = HeatMapTracker(SensorGeometry(n_rows=20, n_cols=20))
    for _ in range(3):
        tracker.hit(4, 5)
    tracker.hit(9, 2)
    assert tracker.threshold == 3
    assert tracker.fifo == [(4, 5)]
    assert tracker.detect() == (4, 5)


def test_no_hits_means_no_detection():
    tracker = HeatMapTracker(SensorGeometry(n_rows=8, n_cols=8))
    assert tracker.detect() is None
    assert tracker.threshold == 0
    assert tracker.fifo == []


def test_detection_is_rounded_mean_of_fifo():
    tracker = HeatMapTracker(SensorGeometry(n_rows=32, n_cols=32))
    tracker.hit(10, 10)
    tracker.hit(20, 20)
    assert tracker.fifo == [(10, 10), (20, 20)]
    assert tracker.detect() == (15, 15)

    single = HeatMapTracker(SensorGeometry(n_rows=32, n_cols=32))
    single.hit(7, 9)
    assert single.detect() == (7, 9)


def test_mean_rounds_half_up():
    tracker = HeatMapTracker(SensorGeometry(n_rows=8, n_cols=8))
    tracker.hit(1, 0)
    tracker.hit(2, 1)
    # means (1.5, 0.5) round up to (2, 1)
    assert tracker.detect() == (2, 1)


def test_threshold_tracks_true_maximum(rng):
    geometry = SensorGeometry(n_rows=15, n_cols=20)
    tracker = HeatMapTracker(geometry)
    for _ in range(4000):
        x = int(rng.integers(0, geometry.n_cols))
        y = int(rng.integers(0, geometry.n_rows))
        tracker.hit(x, y)
        assert tracker.threshold == tracker.counts.max()


def test_random_windows_match_batch_replay(rng):
    geometry = SensorGeometry(n_rows=12, n_cols=18)
    for _ in range(8):
        n = int(rng.integers(500, 4000))
        hits = [
            (int(x), int(y))
            for x, y in zip(
                rng.integers(0, geometry.n_cols, size=n),
                rng.integers(0, geometry.n_rows, size=n),
            )
        ]
        tracker = HeatMapTracker(geometry)
        for x, y in hits:
            tracker.hit(x, y)
        threshold, fifo, mean = alg1_replay(hits)
        assert tracker.threshold == threshold
        assert tracker.fifo == fifo
        assert tracker.detect() == mean


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    hits=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=60),
)
def test_heat_spot_equals_tracker_replay(rows, cols, hits):
    # few pixels, so the largest count is often shared by several cells
    geometry = SensorGeometry(n_rows=rows, n_cols=cols)
    hits = [(x % cols, y % rows) for x, y in hits]
    tracker = HeatMapTracker(geometry)
    for x, y in hits:
        tracker.hit(x, y)
    xs = np.asarray([h[0] for h in hits], dtype=np.int64)
    ys = np.asarray([h[1] for h in hits], dtype=np.int64)
    assert heat_spot(xs, ys, geometry) == (tracker.detect(), tracker.threshold)


def test_detector_model_mask():
    model = DetectorModel(landmarks=(1, 3))
    assert np.array_equal(model.mask(5), [False, True, False, True, False])


def test_box_containment_is_inclusive():
    box = Box(x_min=2, y_min=3, x_max=6, y_max=7)
    assert box.contains(2, 3) and box.contains(6, 7) and box.contains(4, 5)
    assert not box.contains(1, 5) and not box.contains(4, 8)


def test_all_in_box_detections_score_perfect_precision():
    truth = [TruthWindow(0, 10, Box(0, 0, 5, 5)), TruthWindow(10, 20, Box(0, 0, 5, 5))]
    detections = [(1, 2, 2), (12, 3, 3)]
    m = evaluate(detections, truth)
    assert m.precision == 1.0
    assert m.recall == 1.0
    assert m.in_box == 2
    assert not m.no_detections


def test_empty_detections_flagged():
    truth = [TruthWindow(0, 10, Box(0, 0, 5, 5))]
    m = evaluate([], truth)
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.no_detections


def test_detection_scored_against_first_covering_window_only():
    truth = [
        TruthWindow(0, 10, Box(0, 0, 1, 1)),
        TruthWindow(0, 10, Box(40, 40, 60, 60)),
    ]
    m = evaluate([(5, 50, 50)], truth)
    assert m.in_box == 0


def test_uncovered_timestamp_never_in_box():
    truth = [TruthWindow(0, 10, Box(0, 0, 100, 100))]
    m = evaluate([(10, 5, 5)], truth)  # t_end is exclusive
    assert m.in_box == 0


def test_reference_tallies_reproduce_published_metrics():
    truth = [TruthWindow(i, i + 1, Box(0, 0, 10, 10)) for i in range(729)]
    detections = [(i, 5, 5) for i in range(498)]
    detections += [(i, 50, 50) for i in range(229)]
    m = evaluate(detections, truth)
    assert m.n_detections == 727
    assert m.n_truth_windows == 729
    assert m.in_box == 498
    assert round(m.precision, 3) == 0.685
    assert round(m.recall, 3) == 0.683


def test_precision_recall_tally_arithmetic():
    assert precision_recall(498, 727, 729) == (498 / 727, 498 / 729)
    assert precision_recall(0, 0, 5) == (0.0, 0.0)
    assert precision_recall(0, 5, 0) == (0.0, 0.0)
