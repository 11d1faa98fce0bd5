"""Acceptance gate: one test per top-level criterion, each printing a
PASS/FAIL line with its measured numbers.

Thresholds and workloads follow the shipped targets for this toolkit:
filter/descriptor/scorer/tracker oracle equivalence, tree invariants,
packed-word round trips, the synthetic end-to-end run, the metric
arithmetic, and the throughput linearity report.
"""

import math
import os
import sys
import time

import numpy as np
import pytest

from evrect.classifier import StreamScorer, SvmModel, export_stream
from evrect.detector import Box, HeatMapTracker, TruthWindow, evaluate, heat_spot
from evrect.events import EventStream, SensorGeometry
from evrect.filtering import FilterConfig, cascade
from evrect.kdtree import (
    build,
    descend_batch,
    dump_rom,
    harvest_dims,
    pack,
    parse_rom,
    structural_equal,
    unpack,
)
from evrect.pipeline import PipelineConfig, run_classify, run_detect, train_pipeline
from evrect.rect import RectConfig, RectState
from evrect.synth import SceneSpec, synth_scene

from _oracles import alg1_replay, batch_pooled_oracle, cascade_oracle, random_stream, window_sums
from conftest import ACCEPTANCE_LINES


def report(num: int, ok: bool, detail: str = "") -> None:
    """One visible line per criterion, then the hard assertion."""
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:>2}] {status}" + (f"  {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_filter_oracle_equivalence():
    rng = np.random.default_rng(101)
    geometry = SensorGeometry(n_rows=30, n_cols=30)
    theta_settings = [
        (5000, 1000), (1, 1), (2, 3), (100, 2000),
        (50_000, 10), (1000, 1000), (5000, 2), (10, 5000),
    ]
    # only the program's filter is timed; the brute-force oracle runs untimed
    elapsed = 0.0
    n_events = 0
    matched = 0
    n_streams = 100
    for i in range(n_streams):
        theta_noise, theta_ref = theta_settings[i % len(theta_settings)]
        stream = random_stream(rng, 10_000, geometry)
        start = time.perf_counter()
        got = cascade(stream, FilterConfig(theta_noise_us=theta_noise, theta_ref_us=theta_ref))
        elapsed += time.perf_counter() - start
        n_events += len(stream)
        idx = cascade_oracle(stream, theta_noise, theta_ref)
        same = (
            len(got) == len(idx)
            and np.array_equal(got.x, stream.x[idx])
            and np.array_equal(got.y, stream.y[idx])
            and np.array_equal(got.t, stream.t[idx])
        )
        matched += same
    report(
        1,
        matched == n_streams and elapsed < 10.0,
        f"{matched}/{n_streams} streams decision-identical; "
        f"cascade {elapsed:.1f}s over {n_events:,} events (limit 10s)",
    )


def test_criterion_2_rect_incremental_batch_equivalence():
    rng = np.random.default_rng(202)
    geometry = SensorGeometry(n_rows=20, n_cols=20)
    sequences = 0
    for s in (2, 100, 5000):
        cfg = RectConfig(s=s, p=2, q=2, w=5)
        for _ in range(334 if s != 5000 else 332):
            n = int(rng.integers(20, 300))
            xs = rng.integers(0, geometry.n_cols, size=n).tolist()
            ys = rng.integers(0, geometry.n_rows, size=n).tolist()
            state = RectState(geometry, cfg)
            for i in range(n):
                state.push(xs[i], ys[i])
                assert state.counts.sum() == min(i + 1, s)
            counts, pooled = batch_pooled_oracle(
                xs, ys, s, geometry.n_rows, geometry.n_cols, 2, 2
            )
            assert np.array_equal(state.counts, counts)
            assert np.array_equal(state.pooled, pooled)
            sequences += 1
    report(2, sequences == 1000, f"{sequences}/1000 push sequences bit-identical to batch pooling")


def test_criterion_3_tree_self_retrieval():
    rng = np.random.default_rng(303)
    checked = []
    for k in (16, 950, 3000):
        for dim in (5, 81):
            pts = rng.standard_normal((k, dim))
            tree = build(pts)
            leaves = descend_batch(tree, pts)
            self_ok = np.array_equal(leaves, np.arange(k))
            bound = math.ceil(math.log2(k)) + 1
            checked.append(self_ok and tree.depth <= bound)
    report(
        3,
        all(checked),
        f"self-retrieval 100% and depth within ceil(log2 K)+1 for all {len(checked)} (K, dim) cases",
    )


def test_criterion_4_vpca_structural_identity():
    rng = np.random.default_rng(404)
    identical = 0
    trials = 50
    for _ in range(trials):
        k = int(rng.integers(8, 200))
        dim = int(rng.integers(6, 30))
        pts = rng.standard_normal((k, dim))
        full = build(pts)
        proj = harvest_dims(full)
        rebuilt = build(proj.restrict(pts))
        dim_map = {d: i for i, d in enumerate(proj.kept_dims)}
        identical += structural_equal(full, rebuilt, dim_map)
    report(4, identical == trials, f"{identical}/{trials} rebuilt trees structurally identical")


def test_criterion_5_streaming_scorer_identity():
    rng = np.random.default_rng(505)
    k, c, s, n = 32, 4, 700, 100_000
    svm = SvmModel(
        weights=rng.standard_normal((c, k)),
        bias=rng.standard_normal(c),
        class_names=tuple(f"c{i}" for i in range(c)),
    )
    leaves = rng.integers(0, k, size=n)
    results = {}
    for profile, fixed in (("hardware", True), ("float", False)):
        sm = export_stream(svm, s, fixed_point=fixed)
        expect = window_sums(sm.weights.T[leaves], s)
        scorer = StreamScorer(sm)
        got = np.empty_like(expect)
        for i, leaf in enumerate(leaves):
            scorer.push(int(leaf))
            got[i] = scorer.sums
        if fixed:
            results[profile] = bool(np.array_equal(got, expect))
        else:
            results[profile] = float(np.abs(got - expect).max())
    ok = results["hardware"] is True and results["float"] <= 1e-9
    report(
        5,
        ok,
        f"10^5-event replay: integer sums exact, float max deviation {results['float']:.2e} (limit 1e-9)",
    )


def test_criterion_6_heat_map_trace_equivalence():
    rng = np.random.default_rng(606)
    geometry = SensorGeometry(n_rows=24, n_cols=32)
    matched = 0
    windows = 100
    for _ in range(windows):
        n = int(rng.integers(200, 3000))
        hits = list(
            zip(
                rng.integers(0, geometry.n_cols, size=n).tolist(),
                rng.integers(0, geometry.n_rows, size=n).tolist(),
            )
        )
        tracker = HeatMapTracker(geometry)
        for x, y in hits:
            tracker.hit(x, y)
        threshold, fifo, mean = alg1_replay(hits)
        xs, ys = np.asarray(hits, dtype=np.int64).T
        matched += (
            tracker.threshold == threshold
            and tracker.fifo == fifo
            and tracker.detect() == mean
            and heat_spot(xs, ys, geometry) == (mean, threshold)
        )
    report(6, matched == windows, f"{matched}/{windows} windows: tracker and closed form match the batch replay oracle")


def test_criterion_7_packed_node_round_trip():
    rng = np.random.default_rng(707)
    trees = 1000
    ok_all = True
    for _ in range(trees):
        k = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 17))
        pts = rng.standard_normal((k, dim))
        tree = build(pts)
        packed = pack(tree)
        if not bool(np.all(packed.words >> np.uint64(49) == np.uint64(0))):
            ok_all = False
            break
        back = unpack(packed)
        internal = ~tree.is_leaf
        step = (packed.vmax - packed.vmin) / 255.0
        fields_ok = (
            np.array_equal(back.is_leaf, tree.is_leaf)
            and np.array_equal(back.left, tree.left)
            and np.array_equal(back.right, tree.right)
            and np.array_equal(back.leaf_index, tree.leaf_index)
            and np.array_equal(back.split_dim[internal], tree.split_dim[internal])
            and np.abs(back.split_val[internal] - tree.split_val[internal]).max()
            <= step / 2 + 1e-12
        )
        reparsed = parse_rom(dump_rom(packed), vmin=packed.vmin, vmax=packed.vmax)
        if not (fields_ok and np.array_equal(reparsed.words, packed.words)):
            ok_all = False
            break
    report(7, ok_all, f"{trees} trees: words fit 49 bits, unpack and ROM re-parse agree")


def _scenes_3class():
    """80/20 corpus: 8 training and 2 test scenes per class."""
    velocities = [
        (5.0, 0.0), (-5.0, 0.0), (0.0, 5.0), (0.0, -5.0),
        (5.0, 5.0), (-5.0, -5.0), (5.0, -5.0), (-5.0, 5.0),
    ]
    train = []
    test = []
    for ci, shape in enumerate(("bar", "cross", "ring")):
        for i, (vx, vy) in enumerate(velocities):
            spec = SceneSpec(
                shape=shape,
                start_x=100.0 + 5.0 * i,
                start_y=80.0 + 2.0 * i,
                vx=vx,
                vy=vy,
                duration_us=2_000_000,
                event_rate=20_000.0,
                noise_rate=2_000.0,
            )
            stream, _ = synth_scene(spec, seed=1000 * ci + i)
            train.append((shape, stream))
        for j, (vx, vy) in enumerate(((3.0, 2.0), (-3.0, -2.0))):
            spec = SceneSpec(
                shape=shape,
                vx=vx,
                vy=vy,
                duration_us=5_000_000,
                event_rate=20_000.0,
                noise_rate=2_000.0,
            )
            stream, truth = synth_scene(spec, seed=9000 + 10 * ci + j)
            test.append((shape, stream, truth))
    return train, test


def test_criterion_8_synthetic_end_to_end():
    start = time.perf_counter()
    train, test = _scenes_3class()

    config = PipelineConfig(
        pca_mode="vpca",
        k=150,
        s_window=10_000,
        n_landmarks=20,
        sample_cap=40_000,
        seed=0,
    )
    tp = train_pipeline(config, train)

    correct = 0
    total = 0
    for label, stream, _ in test:
        for result in run_classify(tp, stream):
            total += 1
            correct += result.label == label
    accuracy = correct / total if total else 0.0

    in_box = 0
    n_detections = 0
    for label, stream, truth in test:
        if label != "ring":
            continue
        windows = run_detect(tp, stream, target="ring")
        detections = [(w.t_end, w.x, w.y) for w in windows if w.x is not None]
        metrics = evaluate(detections, truth)
        in_box += metrics.in_box
        n_detections += metrics.n_detections
    precision = in_box / n_detections if n_detections else 0.0

    hw_config = PipelineConfig(
        pca_mode="vpca",
        k=16,
        s_window=10_000,
        n_landmarks=8,
        sample_cap=40_000,
        profile="hardware",
        seed=0,
    )
    hw = train_pipeline(hw_config, train)
    agree = 0
    windows = 0
    for _, stream, _ in test:
        soft = run_classify(hw, stream, profile="float")
        hard = run_classify(hw, stream, profile="hardware")
        assert len(soft) == len(hard)
        windows += len(soft)
        agree += sum(a.label == b.label for a, b in zip(soft, hard))
    agreement = agree / windows if windows else 0.0

    elapsed = time.perf_counter() - start
    ok = (
        accuracy >= 0.90
        and precision >= 0.80
        and agreement >= 0.95
        and elapsed < 120.0
    )
    report(
        8,
        ok,
        f"window accuracy {accuracy:.3f} ({correct}/{total}, floor 0.90), "
        f"detection precision {precision:.3f} ({in_box}/{n_detections}, floor 0.80), "
        f"hw/float label agreement {agreement:.3f} ({agree}/{windows}, floor 0.95), "
        f"{elapsed:.0f}s (limit 120s)",
    )


def test_criterion_9_digit_dataset_benchmark():
    root = os.environ.get("EVRECT_NMNIST_DIR")
    if not root:
        line = "[criterion  9] SKIP  dataset-dependent; set EVRECT_NMNIST_DIR to run"
        ACCEPTANCE_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)
        pytest.skip("EVRECT_NMNIST_DIR not set")
    from evrect.nmnist import run_benchmark

    result = run_benchmark(root, k=3000, energy=0.95, seed=0)
    report(
        9,
        result["accuracy"] >= 0.965,
        f"test accuracy {result['accuracy']:.4f} over {result['n_test']} files (floor 0.965)",
    )


def test_criterion_10_metric_arithmetic():
    truth = [TruthWindow(i, i + 1, Box(0, 0, 10, 10)) for i in range(729)]
    detections = [(i, 5, 5) for i in range(498)] + [(i, 50, 50) for i in range(229)]
    m = evaluate(detections, truth)
    ok = (
        m.in_box == 498
        and m.n_detections == 727
        and round(m.precision, 3) == 0.685
        and round(m.recall, 3) == 0.683
    )
    report(
        10,
        ok,
        f"precision 498/727 -> {m.precision:.3f} (want 0.685), recall 498/729 -> {m.recall:.3f} (want 0.683)",
    )


def test_criterion_11_throughput_linearity():
    from evrect.pipeline import run_bench

    # about 617k events: a base run takes some 60 ms with the C kernels, long
    # enough that scheduler jitter does not move the ratio out of its band
    # (a 7 s scene's 13 ms runs gave ratios of 1.60 to 2.54)
    spec = SceneSpec(
        shape="ring", vx=3.0, vy=2.0, duration_us=28_000_000,
        event_rate=20_000.0, noise_rate=2_000.0,
    )
    base, _ = synth_scene(spec, seed=42)
    doubled = EventStream(
        base.geometry,
        np.concatenate([base.x, base.x]),
        np.concatenate([base.y, base.y]),
        np.concatenate([base.t, base.t + int(base.t[-1]) + 1]),
        np.concatenate([base.p, base.p]),
        validate=False,
    )

    train = [
        ("ring", synth_scene(SceneSpec(shape="ring", vx=5.0, duration_us=2_000_000, noise_rate=2_000.0), seed=1)[0]),
        ("bar", synth_scene(SceneSpec(shape="bar", vy=5.0, duration_us=2_000_000, noise_rate=2_000.0), seed=2)[0]),
    ]
    config = PipelineConfig(pca_mode="vpca", k=16, s_window=10_000, sample_cap=20_000, seed=0)
    tp = train_pipeline(config, train)

    # Each doubled run is compared with the mean of the base runs on either
    # side of it, which cancels the machine's speed drift across the three;
    # the median discounts the triples that a sudden speed change lands in.
    base_runs = [run_bench(tp, base).total_seconds]
    ratios = []
    for _ in range(7):
        t_doubled = run_bench(tp, doubled).total_seconds
        base_runs.append(run_bench(tp, base).total_seconds)
        ratios.append(2 * t_doubled / (base_runs[-2] + base_runs[-1]))
    ratio = float(np.median(ratios))
    rate = len(base) / float(np.median(base_runs))
    ok = 1.5 <= ratio <= 2.5
    report(
        11,
        ok,
        f"software-only report: {rate:,.0f} events/s; 2x input -> {ratio:.2f}x wall time "
        f"(want 2x within 25%); no hardware latency figure is asserted",
    )
