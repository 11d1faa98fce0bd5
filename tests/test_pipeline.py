"""End-to-end tests for training, classification, detection, and bundling."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from evrect import _native
from evrect import pipeline as pipeline_mod
from evrect.detector import DetectorModel, HeatMapTracker, evaluate
from evrect.errors import DataError
from evrect.events import EventStream
from evrect.filtering import cascade
from evrect.kdtree import descend_batch, quantized_descend
from evrect.pipeline import (
    DetectWindow,
    PipelineConfig,
    extract_stream_descriptors,
    fifo_snapshot,
    load_bundle,
    run_bench,
    run_classify,
    run_detect,
    save_bundle,
    train_pipeline,
    window_spans,
)
from evrect.rect import RectConfig, RectState
from evrect.synth import SceneSpec, synth_scene


def scene_pair(noise_rate=2000.0, duration_us=300_000, seed_base=0):
    specs = {
        "bar": SceneSpec(
            shape="bar", vx=20.0, vy=0.0, noise_rate=noise_rate,
            duration_us=duration_us,
        ),
        "ring": SceneSpec(
            shape="ring", vx=0.0, vy=15.0, noise_rate=noise_rate,
            duration_us=duration_us,
        ),
    }
    out = {}
    for i, (name, spec) in enumerate(specs.items()):
        out[name] = synth_scene(spec, seed=seed_base + i)[0]
    return out


def small_config(**overrides):
    base = dict(
        rect_cfg=RectConfig(s=400, p=3, q=3, w=5),
        pca_mode="vpca",
        k=16,
        s_window=600,
        n_landmarks=5,
        sample_cap=4000,
        svm_epochs=20,
        seed=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def train_streams():
    return scene_pair()


@pytest.fixture(scope="module")
def test_stream():
    spec = SceneSpec(shape="ring", vx=0.0, vy=15.0, noise_rate=2000.0, duration_us=300_000)
    return synth_scene(spec, seed=99)[0]


@pytest.fixture(scope="module")
def tp_vpca(train_streams):
    return train_pipeline(small_config(), list(train_streams.items()))


@pytest.fixture(scope="module")
def tp_pca(train_streams):
    cfg = small_config(pca_mode="pca", pca_energy=0.90)
    return train_pipeline(cfg, list(train_streams.items()))


@pytest.fixture(scope="module")
def tp_hw(train_streams):
    cfg = small_config(profile="hardware")
    return train_pipeline(cfg, list(train_streams.items()))


def test_config_validation():
    with pytest.raises(DataError, match="pca mode"):
        PipelineConfig(pca_mode="banana")
    with pytest.raises(DataError, match="profile"):
        PipelineConfig(profile="asic")
    with pytest.raises(DataError, match="at least 2"):
        PipelineConfig(k=1)
    with pytest.raises(DataError, match="non-negative"):
        PipelineConfig(s_window=-1)
    with pytest.raises(DataError, match="fixed window size"):
        PipelineConfig(profile="hardware", s_window=0)
    with pytest.raises(DataError, match="landmark count"):
        PipelineConfig(n_landmarks=0)
    with pytest.raises(DataError, match="sample cap"):
        PipelineConfig(sample_cap=1)


def test_hardware_profile_disables_patch_normalization():
    cfg = PipelineConfig(profile="hardware", rect_cfg=RectConfig(normalize=True))
    assert cfg.rect_cfg.normalize is False
    soft = PipelineConfig(profile="float", rect_cfg=RectConfig(normalize=True))
    assert soft.rect_cfg.normalize is True


def test_window_spans_edges():
    assert window_spans(0, 100) == []
    assert window_spans(10, 0) == [(0, 10)]
    assert window_spans(9, 3) == [(0, 3), (3, 6), (6, 9)]
    assert window_spans(10, 3) == [(0, 3), (3, 6), (6, 9)]
    assert window_spans(2, 3) == []


def test_vpca_training_artifacts(tp_vpca):
    assert tp_vpca.vproj is not None
    assert tp_vpca.pca_model is None
    assert tp_vpca.dictionary.feature_space == "vpca-rect"
    assert tp_vpca.stats["vpca_structural_identity"] is True
    assert tp_vpca.stats["vpca_kept_dims"] == len(tp_vpca.vproj.kept_dims)
    assert tp_vpca.class_names == ("bar", "ring")
    assert tp_vpca.tree.n_points == 16
    assert set(tp_vpca.landmarks) == {"bar", "ring"}
    for key in (
        "filtered_events",
        "sampled_descriptors",
        "dictionary_k",
        "tree_depth",
        "training_histograms",
        "training_accuracy",
    ):
        assert key in tp_vpca.stats


def test_pca_training_artifacts(tp_pca):
    assert tp_pca.pca_model is not None
    assert tp_pca.vproj is None
    assert tp_pca.dictionary.feature_space == "pca-rect"
    assert tp_pca.dictionary.centroids.shape[1] == tp_pca.pca_model.n_components


def test_classify_emits_full_windows(tp_vpca, test_stream):
    results = run_classify(tp_vpca, test_stream)
    filtered = cascade(test_stream, tp_vpca.config.filter_cfg)
    assert len(results) == len(filtered) // tp_vpca.config.s_window
    assert len(results) >= 1
    t_ends = [r.t_end for r in results]
    assert t_ends == sorted(t_ends)
    for r in results:
        assert r.label in tp_vpca.class_names
        assert r.scores.shape == (2,)
        assert r.label == tp_vpca.class_names[int(np.argmax(r.scores))]


def test_classify_is_deterministic(tp_vpca, test_stream):
    a = run_classify(tp_vpca, test_stream)
    b = run_classify(tp_vpca, test_stream)
    assert [r.label for r in a] == [r.label for r in b]
    assert all(np.array_equal(x.scores, y.scores) for x, y in zip(a, b))


def test_empty_stream_yields_no_windows(tp_vpca):
    empty = EventStream.from_events(tp_vpca.config.geometry, [])
    assert run_classify(tp_vpca, empty) == []
    assert run_detect(tp_vpca, empty, target="ring") == []


def test_bundle_round_trip_preserves_behavior(tp_vpca, test_stream):
    data = save_bundle(tp_vpca)
    clone = load_bundle(data)
    assert clone.class_names == tp_vpca.class_names
    assert clone.config == tp_vpca.config
    a = run_classify(tp_vpca, test_stream)
    b = run_classify(clone, test_stream)
    assert [r.label for r in a] == [r.label for r in b]
    for x, y in zip(a, b):
        assert np.allclose(x.scores, y.scores, rtol=0, atol=1e-12)
    da = run_detect(tp_vpca, test_stream, target="ring")
    db = run_detect(clone, test_stream, target="ring")
    assert da == db


def test_bundle_config_keeps_the_held_json_type(tp_vpca):
    # an integer where a float belongs is written as the config holds it, and loads
    from evrect.bundle import read_bundle

    tp = dataclasses.replace(tp_vpca, config=dataclasses.replace(tp_vpca.config, svm_lambda=1))
    data = save_bundle(tp)
    assert repr(read_bundle(data)[0]["config"]["svm_lambda"]) == "1"
    assert load_bundle(data).config == tp.config


def test_vpca_bundle_sections(tp_vpca):
    from evrect.bundle import read_bundle

    meta, sections = read_bundle(save_bundle(tp_vpca))
    assert meta["kind"] == "evrect-pipeline"
    assert meta["kept_dims"] == list(tp_vpca.vproj.kept_dims)
    assert "PCA_" not in sections
    assert set(sections) >= {"DICT", "TREE", "SVM_", "LAND"}


def test_pca_bundle_sections(tp_pca):
    from evrect.bundle import read_bundle

    meta, sections = read_bundle(save_bundle(tp_pca))
    assert meta["kept_dims"] is None
    assert "PCA_" in sections
    assert np.array_equal(sections["PCA_"]["mean"], tp_pca.pca_model.mean)


def test_detect_unknown_target_rejected(tp_vpca, test_stream):
    with pytest.raises(DataError, match="unknown target class"):
        run_detect(tp_vpca, test_stream, target="square")


def test_detect_reports_landmark_hits(tp_vpca, test_stream):
    windows = run_detect(tp_vpca, test_stream, target="ring")
    assert len(windows) >= 1
    for w in windows:
        assert w.threshold >= 0
        assert w.landmark_hits >= w.threshold
        if w.x is not None:
            geom = tp_vpca.config.geometry
            assert 0 <= w.x < geom.n_cols
            assert 0 <= w.y < geom.n_rows


def test_detect_equals_per_hit_tracker_replay(tp_vpca, test_stream):
    cfg = tp_vpca.config
    filtered = cascade(test_stream, cfg.filter_cfg)
    desc, _ = extract_stream_descriptors(cfg.geometry, cfg.rect_cfg, filtered)
    leaves = tp_vpca.descend_leaves(tp_vpca.project_features(desc), cfg.profile)
    by_use = np.argsort(np.bincount(leaves, minlength=tp_vpca.tree.n_points), kind="stable")
    # short windows under the rarest leaf leave windows without hits; under
    # the commonest, pixels often share the largest count
    s_window = 40
    empty_windows = tied_windows = 0
    for leaf in (by_use[0], by_use[-1]):
        model = DetectorModel(landmarks=(int(leaf),))
        tp = dataclasses.replace(
            tp_vpca, config=dataclasses.replace(cfg, s_window=s_window), landmarks={"ring": model}
        )
        got = run_detect(tp, test_stream, target="ring")
        spans = window_spans(len(filtered), s_window)
        assert len(got) == len(spans)
        for (start, end), window in zip(spans, got):
            tracker = HeatMapTracker(cfg.geometry)
            for i in range(start, end):
                if leaves[i] in model.landmarks:
                    tracker.hit(int(filtered.x[i]), int(filtered.y[i]))
            spot = tracker.detect()
            assert window == DetectWindow(
                t_end=int(filtered.t[end - 1]),
                x=None if spot is None else spot[0],
                y=None if spot is None else spot[1],
                threshold=tracker.threshold,
                landmark_hits=int(tracker.counts.sum()),
            )
            empty_windows += spot is None
            tied_windows += len(tracker.fifo) > 1
    assert empty_windows and tied_windows


def test_moving_ring_detected_inside_truth_box():
    # zero-noise moving ring: the landmark heat map should localize the
    # object within the ground-truth box in at least 9 of 10 windows
    train = scene_pair(noise_rate=0.0, duration_us=400_000, seed_base=10)
    cfg = small_config(s_window=500, n_landmarks=8)
    tp = train_pipeline(cfg, list(train.items()))
    spec = SceneSpec(shape="ring", vx=25.0, vy=10.0, noise_rate=0.0, duration_us=400_000)
    stream, truth = synth_scene(spec, seed=77)
    windows = run_detect(tp, stream, target="ring")
    assert len(windows) >= 4
    detections = [(w.t_end, w.x, w.y) for w in windows if w.x is not None]
    assert len(detections) >= 0.9 * len(windows)
    metrics = evaluate(detections, truth)
    assert metrics.precision >= 0.9


def test_whole_stream_window_config(train_streams, test_stream):
    cfg = small_config(s_window=0)
    tp = train_pipeline(cfg, list(train_streams.items()))
    assert tp.stream_model is None
    results = run_classify(tp, test_stream)
    assert len(results) == 1
    with pytest.raises(DataError, match="hardware profile"):
        run_classify(tp, test_stream, profile="hardware")


def test_float_bundle_rejects_hardware_scoring(tp_vpca):
    # a float bundle scores windows with the SVM and builds no stream model
    assert tp_vpca.stream_model is None
    assert load_bundle(save_bundle(tp_vpca)).stream_model is None
    counts = np.zeros(tp_vpca.tree.n_points)
    counts[0] = tp_vpca.config.s_window
    with pytest.raises(DataError, match="not trained for the hardware profile"):
        tp_vpca.window_scores(counts, "hardware")


def test_missing_packed_tree_rejected(tp_vpca):
    stripped = dataclasses.replace(tp_vpca, packed=None, _qtree=None)
    with pytest.raises(DataError, match="no packed tree"):
        stripped.quantized_tree()


def test_invalid_profile_override(tp_vpca, test_stream):
    with pytest.raises(DataError, match="profile"):
        run_classify(tp_vpca, test_stream, profile="asic")


def test_hardware_pipeline_packs_and_scores(tp_hw, test_stream):
    assert tp_hw.packed is not None
    assert tp_hw.stats["packed"] is True
    assert tp_hw.stream_model is not None and tp_hw.stream_model.fixed_point
    results = run_classify(tp_hw, test_stream)
    assert len(results) >= 1
    for r in results:
        assert r.scores.dtype == np.int64
        assert r.label in tp_hw.class_names
    float_results = run_classify(tp_hw, test_stream, profile="float")
    assert len(float_results) == len(results)


def test_hardware_bundle_round_trip(tp_hw, test_stream):
    clone = load_bundle(save_bundle(tp_hw))
    assert clone.packed is not None
    assert np.array_equal(clone.packed.words, tp_hw.packed.words)
    a = run_classify(tp_hw, test_stream)
    b = run_classify(clone, test_stream)
    assert [r.label for r in a] == [r.label for r in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.scores, y.scores)


def test_pca_hardware_rom_narrower_than_the_projection(train_streams, test_stream):
    # with 6 components and 16 entries the tree never splits on the last
    # component, so the ROM's highest split dimension is below the width
    tp = train_pipeline(small_config(pca_mode="pca", pca_dims=6, profile="hardware"),
                        list(train_streams.items()))
    assert int(tp.tree.split_dim[~tp.tree.is_leaf].max()) + 1 < tp.tree.dim == 6
    filtered = cascade(test_stream, tp.config.filter_cfg)
    desc, _ = extract_stream_descriptors(tp.config.geometry, tp.config.rect_cfg, filtered)
    projected = tp.project_features(desc)
    leaves = tp.descend_leaves(projected, "hardware")
    assert leaves.tolist() == [quantized_descend(tp.packed, q) for q in projected]
    results = run_classify(tp, test_stream)
    assert len(results) >= 1
    clone = run_classify(load_bundle(save_bundle(tp)), test_stream)
    assert [(r.label, r.scores.tolist()) for r in results] == [(r.label, r.scores.tolist()) for r in clone]


def _edit_bundle(blob, edit):
    from evrect.bundle import read_bundle, write_bundle

    meta, sections = read_bundle(blob)
    sections = {tag: {k: a.copy() for k, a in arrays.items()} for tag, arrays in sections.items()}
    edit(meta, sections)
    return write_bundle(meta, sections)


def _repeat_a_leaf_id(meta, sections):
    tree = sections["TREE"]
    leaves = np.flatnonzero(tree["is_leaf"])
    tree["leaf_index"][leaves[0]] = tree["leaf_index"][leaves[1]]


def _split_past_tree_dim(meta, sections):
    sections["TREE"]["split_dim"][0] = meta["tree_dim"]


def _kept_dims_descend(meta, sections):
    meta["kept_dims"].reverse()


def _kept_dim_past_source(meta, sections):
    meta["kept_dims"][-1] = meta["source_dim"]


def _drop_a_kept_dim(meta, sections):
    meta["kept_dims"].pop()


def _one_leaf_rom(meta, sections):
    sections["PACK"]["words"] = np.asarray([1 << 48], dtype=np.uint64)


def _widen_packed_range(meta, sections):
    meta["packed_range"][1] += 1.0


def _wider_patch(meta, sections):
    meta["config"]["patch_w"] += 2


def _drop_the_rom(meta, sections):
    del sections["PACK"]


def _frac_bits_past_40(meta, sections):
    meta["config"]["frac_bits"] = 41


def _infinite_weight(meta, sections):
    sections["SVM_"]["weights"][0, 0] = np.inf


def _nan_split(meta, sections):
    sections["TREE"]["split_val"][0] = np.nan


def _int64_children(meta, sections):
    sections["TREE"]["left"] = sections["TREE"]["left"].astype(np.int64)


# the message each edit must give, after "bundle: "
BUNDLE_EDITS = {
    "leaf ids are not a permutation": _repeat_a_leaf_id,
    "split dimension lies outside": _split_past_tree_dim,
    "kept dimensions must ascend": _kept_dims_descend,
    "lie in 0..": _kept_dim_past_source,
    "kept dimensions for a tree": _drop_a_kept_dim,
    "packed tree has 1 leaves": _one_leaf_rom,
    "not the packing of the float tree": _widen_packed_range,
    "reads 25-value descriptors, not 49": _wider_patch,
    "hardware profile without a packed tree": _drop_the_rom,
    "frac_bits outside": _frac_bits_past_40,
    "SVM_ 'weights' holds a value that is not finite": _infinite_weight,
    "a split value of the tree is not finite": _nan_split,
    "TREE 'left' is a 1-D int64 array: expected 1-D int32": _int64_children,
}


@pytest.mark.parametrize("message", sorted(BUNDLE_EDITS))
def test_inconsistent_tree_rejected_at_load(tp_hw, message):
    bad = _edit_bundle(save_bundle(tp_hw), BUNDLE_EDITS[message])
    with pytest.raises(DataError, match=f"^bundle: .*{message}"):
        load_bundle(bad)


def test_stage_prefixed_errors(train_streams):
    cfg = small_config(k=200, sample_cap=100)
    with pytest.raises(DataError, match="dictionary learning: 100 samples cannot seed 200"):
        train_pipeline(cfg, list(train_streams.items()))
    cfg2 = small_config(s_window=10_000_000)
    with pytest.raises(DataError, match="histogram accumulation: no stream filled"):
        train_pipeline(cfg2, list(train_streams.items()))
    with pytest.raises(DataError, match="no training streams"):
        train_pipeline(small_config(), [])


def test_training_log_messages(train_streams):
    messages = []
    train_pipeline(small_config(), list(train_streams.items()), log=messages.append)
    joined = "\n".join(messages)
    assert "filtered" in joined
    assert "tree depth" in joined
    assert "training accuracy" in joined


def test_descriptor_snapshots_match_replay(rng, small_geometry):
    cfg = RectConfig(s=60, p=3, q=3, w=3)
    n = 300
    xs = rng.integers(0, small_geometry.n_cols, size=n)
    ys = rng.integers(0, small_geometry.n_rows, size=n)
    ts = np.cumsum(rng.integers(1, 50, size=n))
    stream = EventStream(small_geometry, xs, ys, ts, np.ones(n), validate=False)
    marks = {0, 57, 299}
    state = RectState(small_geometry, cfg)
    for i in range(n):
        state.push(int(xs[i]), int(ys[i]))
        if i in marks:
            counts, pooled = fifo_snapshot(small_geometry, cfg, stream, i)
            assert np.array_equal(state.counts, counts)
            assert np.array_equal(state.pooled, pooled)


def _check_stage_times(report, tp, stream):
    assert report.kernels == ("python" if _native.load() is None else "native")
    assert f"kernels          : {report.kernels}" in report.as_text()
    assert report.accepted_events == len(cascade(stream, tp.config.filter_cfg))
    # rows that are neither normalised nor projected are not built: the C
    # grid walk describes and descends in one call, timed as describe
    grid_walk = (report.kernels == "native" and tp.pca_model is None
                 and not tp.config.rect_cfg.normalize)
    if grid_walk:
        assert set(report.stage_us) == {"filter", "describe", "score"}
    else:
        assert set(report.stage_us) == {"filter", "describe", "project", "descend", "score"}
    assert all(us > 0 for us in report.stage_us.values())
    stage_seconds = sum(report.stage_us.values()) * report.n_events / 1e6
    assert stage_seconds <= report.total_seconds


def test_bench_reports_counts(tp_vpca, test_stream):
    report = run_bench(tp_vpca, test_stream)
    assert report.n_events == len(test_stream)
    _check_stage_times(report, tp_vpca, test_stream)
    assert report.events_per_sec > 0
    text = report.as_text()
    assert "events processed" in text
    assert "stage filter" in text


def test_bench_empty_stream(tp_vpca):
    empty = EventStream.from_events(tp_vpca.config.geometry, [])
    report = run_bench(tp_vpca, empty)
    assert report.n_events == 0
    assert report.total_seconds == 0.0


def test_bench_hardware_profile(tp_hw, test_stream):
    report = run_bench(tp_hw, test_stream)
    assert report.n_events == len(test_stream)
    _check_stage_times(report, tp_hw, test_stream)


# ---- the blocked describe -> normalise -> project -> descend path

BLOCK = pipeline_mod._BLOCK_ROWS
LENGTHS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


@pytest.fixture(scope="module")
def block_models(train_streams, tp_vpca, tp_pca, tp_hw):
    """Trained pipelines over every pca mode, with the profiles each can
    descend: a packed tree also descends quantized."""
    streams = list(train_streams.items())
    models = {
        "vpca": tp_vpca,
        "pca": tp_pca,
        # OpenBLAS projects onto one component as a matrix-vector product,
        # which sums the last n mod 4 rows of a whole matrix in another order
        "pca-1": train_pipeline(small_config(pca_mode="pca", pca_dims=1), streams),
        "none": train_pipeline(small_config(pca_mode="none"), streams),
        "vpca-hardware": tp_hw,
        "pca-hardware": train_pipeline(small_config(pca_mode="pca", pca_dims=6, profile="hardware"),
                                       streams),
    }
    return {name: (tp, ["float", "hardware"] if tp.packed is not None else ["float"])
            for name, tp in models.items()}


def _random_events(geometry, n, seed=7):
    """n events on random pixels: the blocked path takes any stream whose
    coordinates fit, filtered or not."""
    rng = np.random.default_rng(seed)
    return EventStream(geometry, rng.integers(0, geometry.n_cols, n),
                       rng.integers(0, geometry.n_rows, n), np.arange(n), np.zeros(n))


def _prefix(stream, n):
    return EventStream(stream.geometry, stream.x[:n], stream.y[:n], stream.t[:n], stream.p[:n])


def _whole_matrix_leaves(tp, rect_cfg, stream, profile):
    desc, _ = extract_stream_descriptors(tp.config.geometry, rect_cfg, stream)
    return descend_batch(tp.profile_tree(profile), tp.project_features(desc))


def _blocked_leaves(tp, rect_cfg, stream, profile):
    return pipeline_mod._stream_leaves(tp.config.geometry, rect_cfg, tp.profile_tree(profile),
                                       tp.pca_model, tp.vproj, stream)


# (s, p, q): FIFO capacities below, at and above the longest stream's
# length, and pools of areas 9, 6 and 4
FIFO_POOLS = ((1, 3, 3), (BLOCK // 3, 2, 3), (2 * BLOCK + 5, 3, 3), (LENGTHS[-1], 2, 3),
              (10**12, 2, 2))


def _one_pixel_events(geometry, n):
    """n events on one pixel, whose pooled cell reaches a count of min(s, n):
    the last entry of the count -> value table."""
    return EventStream(geometry, np.full(n, geometry.n_cols // 2), np.full(n, geometry.n_rows // 2),
                       np.arange(n), np.zeros(n))


@pytest.mark.parametrize("model", ["vpca", "pca", "none", "vpca-hardware", "pca-hardware"])
def test_blocked_leaves_equal_whole_matrix_descent(block_models, model):
    """Both describe paths, the blocked rows and (for rows neither normalised
    nor projected) the grid walk, against a descent of the whole matrix."""
    tp, profiles = block_models[model]
    events = _random_events(tp.config.geometry, LENGTHS[-1])
    one_pixel = _one_pixel_events(tp.config.geometry, LENGTHS[-1])
    for s, p, q in FIFO_POOLS:
        for normalize in (True, False):
            rect_cfg = dataclasses.replace(tp.config.rect_cfg, s=s, p=p, q=q, normalize=normalize)
            for stream in [_prefix(events, n) for n in LENGTHS] + [one_pixel]:
                for profile in profiles:
                    got = _blocked_leaves(tp, rect_cfg, stream, profile)
                    want = _whole_matrix_leaves(tp, rect_cfg, stream, profile)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want), (s, p, q, normalize, len(stream), profile)


@pytest.mark.parametrize("model", ["vpca", "pca", "pca-1", "none", "vpca-hardware", "pca-hardware"])
def test_fallback_leaves_equal_native_leaves(block_models, model):
    """Without the kernels, the RectState replay fills blocks of the same
    rows as the C patch copy, which project and descend as the kernels' do:
    the same leaves for every stream length, also for one PCA component."""
    tp, profiles = block_models[model]
    events = _random_events(tp.config.geometry, LENGTHS[-1])
    streams = [_prefix(events, n) for n in LENGTHS] + [_one_pixel_events(tp.config.geometry, LENGTHS[-1])]
    for normalize in (True, False):
        rect_cfg = dataclasses.replace(tp.config.rect_cfg, s=BLOCK // 3, normalize=normalize)
        cases = [(stream, profile) for stream in streams for profile in profiles]
        native = [_blocked_leaves(tp, rect_cfg, stream, profile) for stream, profile in cases]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "load", lambda: None)
            fallback = [_blocked_leaves(tp, rect_cfg, stream, profile) for stream, profile in cases]
        for (stream, profile), got, want in zip(cases, fallback, native):
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (normalize, len(stream), profile)


def test_fallback_describes_block_by_block(small_geometry):
    """Without the kernels, the describe loop fills one reused buffer of at
    most _BLOCK_ROWS rows, whose rows are the whole matrix's."""
    n = 3 * BLOCK + 7
    events = _random_events(small_geometry, n)
    rect_cfg = RectConfig(s=BLOCK // 3, p=2, q=3, w=5)
    desc, _ = extract_stream_descriptors(small_geometry, rect_cfg, events)
    spans, got = [], np.empty_like(desc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        for start, stop, rows, norm in pipeline_mod._descriptor_blocks(small_geometry, rect_cfg, events):
            assert len(rows) <= BLOCK and norm is not None
            spans.append((start, stop))
            got[start:stop] = rows[: stop - start]
            pipeline_mod._normalize(got[start:stop], norm)
    assert spans == [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 3 * BLOCK), (3 * BLOCK, n)]
    assert got.tobytes() == desc.tobytes()


def test_sampled_rows_equal_whole_matrix_rows(small_geometry):
    events = _random_events(small_geometry, LENGTHS[-1])
    rng = np.random.default_rng(3)
    for s in (1, BLOCK // 3, 2 * BLOCK + 5):
        for normalize in (True, False):
            rect_cfg = RectConfig(s=s, p=2, q=3, w=5, normalize=normalize)
            desc, _ = extract_stream_descriptors(small_geometry, rect_cfg, events)
            for n in LENGTHS[1:]:
                stream = _prefix(events, n)
                picks = [[0], [n - 1], np.arange(n),
                         np.sort(rng.choice(n, size=min(n, 50), replace=False))]
                if n > BLOCK:
                    picks.append([BLOCK - 1, BLOCK])
                for rows in picks:
                    rows = np.asarray(rows, dtype=np.int64)
                    got = pipeline_mod._sample_rows(small_geometry, rect_cfg, stream, rows)
                    assert got.tobytes() == desc[rows].tobytes(), (s, normalize, n, rows[:3])
    rows = np.array([0, BLOCK - 1, BLOCK, 3 * BLOCK + 6])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        fallback = pipeline_mod._sample_rows(small_geometry, rect_cfg, events, rows)
    assert fallback.tobytes() == desc[rows].tobytes()


def test_classify_memory_does_not_grow_by_a_descriptor_matrix(train_streams):
    """The peak that run_classify traces grows with the stream by far less
    than the n x w² float64 matrix the blocked path no longer holds."""
    w = 9
    tp = train_pipeline(small_config(rect_cfg=RectConfig(s=400, p=3, q=3, w=w)),
                        list(train_streams.items()))
    spec = dict(shape="ring", vx=0.0, vy=15.0, noise_rate=2000.0)
    short = synth_scene(SceneSpec(duration_us=300_000, **spec), seed=5)[0]
    long = synth_scene(SceneSpec(duration_us=1_200_000, **spec), seed=5)[0]
    run_classify(tp, short)  # the kernels are built or loaded once per process

    def peak(stream):
        tracemalloc.start()
        try:
            run_classify(tp, stream)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kept_short = len(cascade(short, tp.config.filter_cfg))
    kept_long = len(cascade(long, tp.config.filter_cfg))
    assert kept_long > 3 * kept_short
    per_extra_event = (peak(long) - peak(short)) / (kept_long - kept_short)
    assert per_extra_event < 8 * w * w / 4, per_extra_event
