import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import batch_pooled_oracle, patch_oracle
from evrect.errors import DataError
from evrect.events import SensorGeometry
from evrect.rect import RectConfig, RectState, batch_pooled

GEO = SensorGeometry(n_rows=30, n_cols=30)


def test_capacity_two_eviction():
    state = RectState(GEO, RectConfig(s=2, normalize=False))
    state.push(1, 1)
    state.push(5, 5)
    state.push(9, 9)
    assert state.counts[1, 1] == 0
    assert state.counts[5, 5] == 1
    assert state.counts[9, 9] == 1
    assert state.counts.sum() == 2


def test_push_then_evict_same_pixel_restores_counts():
    state = RectState(GEO, RectConfig(s=3, normalize=False))
    for x, y in [(2, 2), (4, 4), (6, 6)]:
        state.push(x, y)
    before = state.counts.copy()
    pooled_before = state.pooled.copy()
    # FIFO full; pushing pixel (2,2) evicts the oldest, also (2,2)
    state.push(2, 2)
    assert np.array_equal(state.counts, before)
    assert np.array_equal(state.pooled, pooled_before)


def test_incremental_pooled_matches_batch(rng):
    cfg = RectConfig(s=500, p=2, q=3, w=5, normalize=False)
    state = RectState(GEO, cfg)
    xs = rng.integers(0, GEO.n_cols, size=10_000).tolist()
    ys = rng.integers(0, GEO.n_rows, size=10_000).tolist()
    for x, y in zip(xs, ys):
        state.push(x, y)
    counts, pooled = batch_pooled_oracle(xs, ys, cfg.s, GEO.n_rows, GEO.n_cols, cfg.p, cfg.q)
    assert np.array_equal(state.counts, counts)
    assert np.array_equal(state.pooled, pooled)
    assert np.array_equal(batch_pooled(state.counts, cfg.p, cfg.q), pooled)


def test_single_event_descriptor_center_value():
    cfg = RectConfig(s=100, p=2, q=2, w=9, normalize=False)
    state = RectState(GEO, cfg)
    state.push(10, 10)
    vals = state.extract_values(10, 10)
    assert vals.shape == (81,)
    center = (cfg.w * cfg.w) // 2
    assert vals[center] == pytest.approx(1.0 / (cfg.p * cfg.q))
    assert np.count_nonzero(vals) == 1


def test_corner_event_zero_padding():
    cfg = RectConfig(s=100, p=2, q=2, w=9, normalize=False)
    state = RectState(GEO, cfg)
    state.push(0, 0)
    vals = state.extract_values(0, 0).reshape(cfg.w, cfg.w)
    half = cfg.w // 2
    assert np.all(vals[:half, :] == 0)
    assert np.all(vals[:, :half] == 0)
    assert vals[half, half] == pytest.approx(0.25)


def test_descriptor_matches_patch_oracle(rng):
    cfg = RectConfig(s=300, p=2, q=2, w=7, normalize=True)
    state = RectState(GEO, cfg)
    xs = rng.integers(0, GEO.n_cols, size=2_000).tolist()
    ys = rng.integers(0, GEO.n_rows, size=2_000).tolist()
    for i, (x, y) in enumerate(zip(xs, ys)):
        state.push(x, y)
        if i % 50 == 0:
            _, pooled = batch_pooled_oracle(
                xs[: i + 1], ys[: i + 1], cfg.s, GEO.n_rows, GEO.n_cols, cfg.p, cfg.q
            )
            expected = patch_oracle(pooled, x, y, cfg.p, cfg.q, cfg.w, cfg.normalize)
            assert np.allclose(state.extract_values(x, y), expected, atol=0, rtol=0)


def test_normalization_unit_norm_and_zero_patch():
    cfg = RectConfig(s=10, p=2, q=2, w=3, normalize=True)
    state = RectState(GEO, cfg)
    state.push(4, 4)
    vals = state.extract_values(4, 4)
    assert np.isclose(np.linalg.norm(vals), 1.0)
    # a far-away event sees an all-zero patch, which stays all-zero
    far = state.extract_values(28, 28)
    assert np.all(far == 0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=0, max_size=60),
)
def test_conservation(s, pixels):
    cfg = RectConfig(s=s, p=2, q=2, w=3, normalize=False)
    state = RectState(GEO, cfg)
    for x, y in pixels:
        state.push(x, y)
    assert state.counts.sum() == min(len(pixels), s)
    assert state.pooled.sum() == state.counts.sum()
    assert np.all(state.counts >= 0)


def test_descriptor_locality(rng):
    cfg = RectConfig(s=10_000, p=2, q=2, w=9, normalize=False)
    anchor = (14, 14)
    # any pixel beyond the patch footprint must not affect the descriptor
    base = RectState(GEO, cfg)
    base.push(*anchor)
    reference = base.extract_values(*anchor)
    touched = RectState(GEO, cfg)
    touched.push(0, 29)
    touched.push(29, 0)
    touched.push(*anchor)
    assert np.array_equal(touched.extract_values(*anchor), reference)


def test_uneven_pooling_grid():
    geo = SensorGeometry(n_rows=5, n_cols=7)
    cfg = RectConfig(s=50, p=2, q=3, w=3, normalize=False)
    state = RectState(geo, cfg)
    for x in range(7):
        for y in range(5):
            state.push(x, y)
    assert np.array_equal(state.pooled, batch_pooled(state.counts, 2, 3))
    assert state.pooled.shape == (3, 3)


def test_config_validation():
    with pytest.raises(DataError):
        RectConfig(s=0)
    with pytest.raises(DataError):
        RectConfig(w=4)
    with pytest.raises(DataError):
        RectConfig(p=0)
    assert RectConfig(w=9).dim == 81
