"""The C kernels against the Python reference loops they replace: the noise
cascade, the per-event descriptors, the k-d tree descent, and whole train /
classify / detect runs with the kernels forced off."""

import os
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrect import _native, pipeline
from evrect.errors import DataError
from evrect.events import MAX_TIMESTAMP, EventStream, SensorGeometry
from evrect.filtering import CascadeFilter, FilterConfig, cascade
from evrect.kdtree import (
    KdTree,
    VirtualProjection,
    batch_descent,
    build,
    check_tree,
    descend,
    descend_batch,
    pack,
    quantized_descend,
    unpack,
)
from evrect.pipeline import (
    PipelineConfig,
    extract_stream_descriptors,
    run_classify,
    run_detect,
    save_bundle,
    train_pipeline,
)
from evrect.rect import RectConfig, RectState
from evrect.synth import SceneSpec, synth_scene


@contextmanager
def python_kernels():
    """Run the block as on a host where the kernels cannot be built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        yield


def test_kernels_build_where_gcc_is():
    if not os.path.exists(_native.CC):
        pytest.skip(f"no {_native.CC}: the Python loops are the only path here")
    assert _native.load() is not None


def test_import_builds_and_loads_nothing():
    code = ("import evrect, evrect.cli, evrect.pipeline, evrect._native as n; "
            "assert n.load.cache_info().currsize == 0")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@st.composite
def filter_cases(draw):
    """Tie-prone streams: few pixels, so the same pixel and its neighbours
    recur, and gaps that land exactly on, just under and just over each
    threshold."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    theta_ref = draw(st.integers(1, 12))
    theta_noise = draw(st.integers(1, 12))
    gaps = st.sampled_from(sorted({0, 1, theta_ref - 1, theta_ref, theta_ref + 1,
                                   theta_noise - 1, theta_noise, theta_noise + 1}))
    events = draw(st.lists(
        st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1), gaps), max_size=150,
    ))
    ts = np.cumsum([g for _, _, g in events], dtype=np.int64)
    stream = EventStream(
        SensorGeometry(n_rows=rows, n_cols=cols),
        np.asarray([e[0] for e in events], dtype=np.int64),
        np.asarray([e[1] for e in events], dtype=np.int64),
        ts,
        np.arange(len(events)) % 2,
    )
    return stream, FilterConfig(theta_noise_us=theta_noise, theta_ref_us=theta_ref)


def _columns(stream: EventStream):
    return [a.tolist() for a in (stream.x, stream.y, stream.t, stream.p)]


@settings(max_examples=300, deadline=None)
@given(filter_cases())
def test_cascade_native_equals_python(case):
    stream, cfg = case
    got = cascade(stream, cfg)
    with python_kernels():
        want = cascade(stream, cfg)
    assert _columns(got) == _columns(want)


def _every_cell_stream(rows, cols, t0, jump):
    """Every pixel fires, corners and borders included, in row order, then
    in reverse, then in row order again, 0, 1 or 2 us apart from t0 on
    (a neighbour in the same microsecond passes a 1 us threshold);
    with ``jump``, the same again from near the largest timestamp."""
    cells = [(x, y) for y in range(rows) for x in range(cols)]
    order = cells + cells[::-1] + cells
    ts = t0 + np.cumsum([(0, 1, 0, 2)[i % 4] for i in range(len(order))])
    if jump:
        order = order + order
        ts = np.concatenate([ts, MAX_TIMESTAMP - 200 + ts - t0])
    return EventStream(SensorGeometry(n_rows=rows, n_cols=cols), [x for x, _ in order],
                       [y for _, y in order], np.asarray(ts, dtype=np.int64), np.zeros(len(order)))


@pytest.mark.parametrize("theta_noise", [1, MAX_TIMESTAMP])
@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (6, 1), (3, 3)])
def test_cascade_on_border_cells_and_extreme_timestamps(rows, cols, theta_noise):
    """The bordered noise map against CascadeFilter, on sensors whose every
    pixel is a border or corner pixel, from timestamp 0 and from near
    2^63 - 1, where a never-fired neighbour's gap overflows int64."""
    cfg = FilterConfig(theta_noise_us=theta_noise, theta_ref_us=1)
    for t0, jump in ((0, True), (MAX_TIMESTAMP - 100, False)):
        stream = _every_cell_stream(rows, cols, t0, jump)
        push = CascadeFilter(stream.geometry, cfg).push
        want = [i for i, (x, y, t) in enumerate(zip(*_columns(stream)[:3])) if push(x, y, t)]
        got = cascade(stream, cfg)
        assert got.t.tolist() == stream.t[want].tolist()
        assert _columns(got) == _columns(stream.slice(np.asarray(want, dtype=np.int64)))
        # a lone pixel has no neighbours; every other sensor keeps something
        assert (len(want) == 0) == (rows * cols == 1)


@st.composite
def rect_cases(draw):
    """Small sensors whose sides need not divide by the pooling cell, FIFO
    capacities below and above the stream length, and every patch width
    that fits a few pooled cells."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    cfg = RectConfig(
        s=draw(st.integers(1, 40)),
        p=draw(st.integers(1, 5)),
        q=draw(st.integers(1, 5)),
        w=draw(st.sampled_from([1, 3, 5, 7])),
        normalize=draw(st.booleans()),
    )
    n = draw(st.integers(0, 80))
    xs = draw(st.lists(st.integers(0, cols - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n))
    geometry = SensorGeometry(n_rows=rows, n_cols=cols)
    stream = EventStream(geometry, xs, ys, np.arange(n), np.zeros(n))
    return geometry, cfg, stream


@settings(max_examples=300, deadline=None)
@given(rect_cases())
def test_descriptors_native_equal_python_bit_for_bit(case):
    geometry, cfg, stream = case
    got, kernels = extract_stream_descriptors(geometry, cfg, stream)
    with python_kernels():
        want, fallback = extract_stream_descriptors(geometry, cfg, stream)
    assert fallback == "python"
    assert kernels == ("python" if _native.load() is None else "native")
    assert got.shape == want.shape == (len(stream), cfg.dim)
    assert got.tobytes() == want.tobytes()
    # the replay fills unnormalised rows; RectState's own normalisation
    # gives the same bits as the numpy one applied to them
    state = RectState(geometry, cfg)
    for x, y, row in zip(stream.x.tolist(), stream.y.tolist(), got):
        state.push(x, y)
        assert row.tobytes() == state.extract_values(x, y).tobytes()


@pytest.mark.parametrize("kernels", ["native", "python"])
def test_coordinates_are_checked_before_the_loops(kernels):
    geometry = SensorGeometry(n_rows=4, n_cols=5)
    # x == n_cols would address the next row's first pixel in a flat map
    stream = EventStream(geometry, [1, 5], [0, 2], [0, 10], [0, 1], validate=False)
    below = EventStream(geometry, [1, 2], [0, -1], [0, 10], [0, 1], validate=False)
    with pytest.MonkeyPatch.context() as mp:
        if kernels == "python":
            mp.setattr(_native, "load", lambda: None)
        for bad in (stream, below):
            with pytest.raises(DataError, match="event 1: coordinate .* outside 5x4 sensor"):
                cascade(bad, FilterConfig())
            with pytest.raises(DataError, match="event 1: coordinate .* outside 5x4 sensor"):
                extract_stream_descriptors(geometry, RectConfig(s=4, p=2, q=2, w=3), bad)


def _run_all(config, train, probe):
    tp = train_pipeline(config, train)
    classified = run_classify(tp, probe)
    detected = [run_detect(tp, probe, name) for name in tp.class_names]
    return save_bundle(tp), classified, detected


@pytest.mark.parametrize("profile", ["float", "hardware"])
def test_forced_fallback_gives_the_same_outputs(profile):
    spec = dict(noise_rate=4_000.0, duration_us=250_000)
    train = [
        ("bar", synth_scene(SceneSpec(shape="bar", vx=20.0, **spec), seed=1)[0]),
        ("ring", synth_scene(SceneSpec(shape="ring", vy=15.0, **spec), seed=2)[0]),
    ]
    probe = synth_scene(SceneSpec(shape="ring", vy=15.0, **spec), seed=3)[0]
    config = PipelineConfig(
        rect_cfg=RectConfig(s=300, p=3, q=2, w=5), k=16, s_window=500, n_landmarks=4,
        sample_cap=3_000, svm_epochs=10, profile=profile,
    )
    blob, classified, detected = _run_all(config, train, probe)
    with python_kernels():
        blob_py, classified_py, detected_py = _run_all(config, train, probe)
    assert blob == blob_py
    assert len(classified) >= 2
    assert [(r.t_end, r.label, r.scores.tobytes()) for r in classified] == [
        (r.t_end, r.label, r.scores.tobytes()) for r in classified_py
    ]
    assert detected == detected_py


def test_native_source_compiles_without_warnings():
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    proc = subprocess.run(
        ["gcc", *_native.CFLAGS, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(_native._SOURCE)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@st.composite
def descent_cases(draw):
    """A tree over few distinct values, so that splits tie and points
    repeat coordinates, and queries that sit on split values, repeat
    training points or hold NaN, embedded in a wider matrix at ascending
    columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    levels = draw(st.integers(1, 4))
    pts = np.unique(rng.integers(0, levels + 1, size=(draw(st.integers(1, 40)), d)), axis=0) / levels
    tree = build(pts)
    n = draw(st.integers(0, 60))
    queries = rng.integers(0, levels + 1, size=(n, d)) / levels
    internal = np.flatnonzero(~tree.is_leaf)
    if internal.size:
        # put split values on their split dimensions
        nodes = rng.choice(internal, size=n)
        queries[np.arange(n), tree.split_dim[nodes]] = tree.split_val[nodes]
    repeat = rng.random(n) < 0.2
    queries[repeat] = pts[rng.integers(0, len(pts), size=int(repeat.sum()))]
    queries[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.nan
    source_dim = d + draw(st.integers(0, 5))
    kept = np.sort(rng.choice(source_dim, size=d, replace=False))
    full = rng.standard_normal((n, source_dim))
    # per-row divisors, some zero (never divided), one for an all-zero row
    norm = np.where(rng.random(n) < 0.3, 0.0, rng.choice([0.5, 1.0, 3.0, 7.25], size=n))
    if n:
        full[0] = queries[0] = norm[0] = 0.0
    full[:, kept] = queries
    return tree, queries, VirtualProjection(tuple(int(c) for c in kept), source_dim), full, norm


def _both_paths(fn):
    with python_kernels():
        fallback = fn()
    return fn(), fallback


@settings(max_examples=300, deadline=None)
@given(descent_cases())
def test_descent_native_equals_fallback_and_per_event(case):
    tree, queries, vproj, full, norm = case
    want = np.asarray([descend(tree, q) for q in queries], dtype=np.int64)
    for got in _both_paths(lambda: descend_batch(tree, queries)):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    width = full.shape[1]
    for got in _both_paths(lambda: batch_descent(tree, width, vproj.kept_dims)(full)):
        assert np.array_equal(got, want)
    assert np.array_equal(vproj.restrict(full), queries, equal_nan=True)
    packed = pack(tree)
    qtree = unpack(packed, tree.dim)
    want_q = np.asarray([quantized_descend(packed, q) for q in queries], dtype=np.int64)
    assert np.array_equal(want_q, [descend(qtree, q) for q in queries])
    for got in _both_paths(lambda: batch_descent(qtree, width, vproj.kept_dims)(full)):
        assert np.array_equal(got, want_q)
    # a divisor per row gives the leaves of numpy's divided matrix
    divided = full.copy()
    np.divide(divided, norm[:, None], out=divided, where=norm[:, None] > 0.0)
    want_div = [descend(tree, row) for row in vproj.restrict(divided)]
    for got in _both_paths(lambda: batch_descent(tree, width, vproj.kept_dims)(full, norm)):
        assert np.array_equal(got, np.asarray(want_div, dtype=np.int64))


def _hand_tree(left, right):
    """Nodes split dimension 0 at 0.0 where both children are given, and
    are leaves where both are -1."""
    left, right = np.asarray(left, dtype=np.int32), np.asarray(right, dtype=np.int32)
    is_leaf = (left == -1) & (right == -1)
    leaf_index = np.where(is_leaf, np.cumsum(is_leaf) - 1, -1).astype(np.int32)
    return KdTree(is_leaf, np.where(is_leaf, -1, 0).astype(np.int32), np.where(is_leaf, np.nan, 0.0),
                  left, right, leaf_index, 1, int(is_leaf.sum()))


# node 2, on the right of the root, has one bad child on its right
BAD_RIGHT_CHILD = {"back to the root": 0, "itself": 2, "past the end": 999, "negative": -1}


def _leaves_or_error(tree, queries):
    try:
        return descend_batch(tree, np.asarray(queries)).tolist()
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("bad", sorted(BAD_RIGHT_CHILD))
def test_unwalkable_tree_is_a_data_error_on_both_paths(bad):
    tree = _hand_tree([1, -1, 3, -1], [2, -1, BAD_RIGHT_CHILD[bad], -1])
    with pytest.raises(DataError, match="later node"):
        check_tree(tree)
    # the first batch never reaches node 2; the others step off it
    batches = ([[-1.0], [0.0]], [[1.0]], [[-1.0], [np.nan]])
    outcomes = {}

    def walk():
        for name, kernels in (("native", nullcontext()), ("python", python_kernels())):
            with kernels:
                outcomes[name] = [_leaves_or_error(tree, b) for b in batches]

    worker = threading.Thread(target=walk, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "a walk did not end"
    assert outcomes["native"] == outcomes["python"] == [[0, 0], _native.BAD_STEP, _native.BAD_STEP]


@pytest.mark.parametrize("bad", sorted(BAD_RIGHT_CHILD))
def test_grid_walk_of_an_unwalkable_tree_is_a_data_error(bad):
    if _native.load() is None:
        pytest.skip("no kernels: the grid walk is not built")
    tree = _hand_tree([1, -1, 3, -1], [2, -1, BAD_RIGHT_CHILD[bad], -1])
    geometry = SensorGeometry(n_rows=4, n_cols=4)
    stream = EventStream(geometry, [0, 1], [0, 0], [0, 5], [0, 1])
    rect_cfg = RectConfig(s=4, p=1, q=1, w=1, normalize=False)
    outcome = []

    def walk():
        # every count is > 0, so the walk goes right twice: to node 2, then off it
        try:
            outcome.append(pipeline._stream_leaves(geometry, rect_cfg, tree, None, None, stream))
        except DataError as exc:
            outcome.append(str(exc))

    worker = threading.Thread(target=walk, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "a walk did not end"
    assert outcome == [_native.BAD_STEP]


@pytest.mark.parametrize("p, q", [(3, 1), (2, 3), (3, 3)])
def test_grid_walk_reads_the_table_up_to_the_fifo_capacity(p, q):
    """A one-split tree on the patch centre, split just below s / (p q): an
    event goes right exactly when its own pooled cell holds all s events
    of the FIFO, the table's last entry."""
    s, w = 5, 3
    geometry = SensorGeometry(n_rows=9, n_cols=9)
    rect_cfg = RectConfig(s=s, p=p, q=q, w=w, normalize=False)
    # bursts of 1 to 7 events on one pixel, between events elsewhere
    xs, ys = [], []
    for burst in range(1, 8):
        xs += [4] * burst + [0, 8]
        ys += [4] * burst + [8, 0]
    stream = EventStream(geometry, xs, ys, np.arange(len(xs)), np.zeros(len(xs)))
    centre = w * w // 2
    tree = KdTree(np.array([False, True, True]), np.array([centre, -1, -1], dtype=np.int32),
                  np.array([(s - 1) / (p * q), np.nan, np.nan]), np.array([1, -1, -1], dtype=np.int32),
                  np.array([2, -1, -1], dtype=np.int32), np.array([-1, 0, 1], dtype=np.int32),
                  w * w, 2)
    rows, _ = extract_stream_descriptors(geometry, rect_cfg, stream)
    want = [int(r[centre] * (p * q) == s) for r in rows]
    assert sum(want) == 1 + 2 + 3 and want == [descend(tree, r) for r in rows]
    for got in _both_paths(lambda: pipeline._stream_leaves(geometry, rect_cfg, tree, None, None, stream)):
        assert got.tolist() == want
