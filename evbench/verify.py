"""Correctness of one workload's outputs: every held-out recording's
classify (and detect) outputs against the oracles, the ground-truth floors
of acceptance criterion 8, the self-test of every check, and the bundle
round trip.  Also the counts and model-quality diagnostics the traced run
reports, taken from the same recordings."""

from __future__ import annotations

from pathlib import Path

import numpy as np

import oracle
from evrect.events import parse_csv
from evrect.filtering import cascade
from evrect.kdtree import exact_nn
from evrect.pipeline import extract_stream_descriptors, window_spans
from evrect.synth import parse_truth_csv
from workloads import Workload, csv_path, truth_path

ACCURACY_FLOOR = 0.90
PRECISION_FLOOR = 0.80
AGREEMENT_FLOOR = 0.95
DESCRIPTOR_SAMPLE = 1_000
NN_SAMPLE = 500          # rows per recording for the tree-vs-exact-NN agreement


def check_recording(tp, model, scene, seed: int, workdir: Path, results, detect=None):
    """Checks one recording's outputs; returns (errors, self-test case)."""
    cfg = tp.config
    profile = cfg.profile
    generated, _ = scene.generate(seed)
    raw = parse_csv(csv_path(workdir, scene).read_bytes(), cfg.geometry)
    errors = oracle.check_parse(raw, generated)

    kept = cascade(raw, cfg.filter_cfg)
    keep_idx, ref_rejects, noise_rejects = oracle.filter_oracle(
        raw.x, raw.y, raw.t, cfg.geometry.n_rows, cfg.geometry.n_cols,
        cfg.filter_cfg.theta_ref_us, cfg.filter_cfg.theta_noise_us)
    errors += oracle.check_filter(kept, raw, keep_idx)

    desc, _ = extract_stream_descriptors(cfg.geometry, cfg.rect_cfg, kept)
    rng = np.random.default_rng([seed, len(kept)])
    rows = np.sort(rng.choice(len(kept), size=min(DESCRIPTOR_SAMPLE, len(kept)), replace=False))
    desc_rows = desc[rows]
    errors += oracle.check_descriptors(rows, desc_rows, kept, cfg.rect_cfg)

    projected = tp.project_features(desc)
    leaves = tp.descend_leaves(projected, profile)
    errors += check_roundtrip(model, tp, desc, leaves)
    del desc
    ref_leaves = oracle.reference_leaves(tp, projected, profile)
    errors += oracle.check_leaves(leaves, ref_leaves)
    errors += oracle.check_windows(results, kept.t, ref_leaves, tp, profile)
    float_leaves = None
    if profile == "hardware":
        # the float profile's leaves from the same descriptors
        float_leaves = tp.descend_leaves(projected, "float")
    if detect is not None:
        errors += oracle.check_detect(detect[0], kept, ref_leaves, tp, detect[1])
    case = dict(tp=tp, profile=profile, generated=generated, raw=raw, kept=kept, keep_idx=keep_idx,
                rejects=(ref_rejects, noise_rejects), desc_check=(rows, desc_rows), projected=projected,
                leaves=leaves, ref_leaves=ref_leaves, float_leaves=float_leaves,
                results=results, detect=detect)
    return [f"{scene.name}: {e}" for e in errors], case


def verify_workload(tp, model, wl: Workload, seed: int, workdir: Path, classified: dict, detected: dict):
    """``tp`` is the reloaded bundle whose outputs are checked and ``model``
    the trained pipeline it was saved from.  ``classified`` maps scene name
    to window results, ``detected`` maps scene name to (detect rows,
    evaluate's metrics).  Returns (errors, ground-truth figures, counts over
    the checked recordings)."""
    errors = oracle.check_self_retrieval(tp)
    cfg = tp.config
    hardware = cfg.profile == "hardware"
    correct = total = 0
    in_box = n_det = 0
    agree = n_win = 0
    same_leaf = n_leaf = 0
    nn_same = nn_n = 0
    leaves_seen = np.zeros(tp.tree.n_points, dtype=bool)
    counts = dict.fromkeys(("kept_events", "refractory_rejects", "noise_rejects", "windows",
                            "trailing_events_dropped"), 0)
    rng = np.random.default_rng(seed)
    for scene in wl.heldout:
        if scene.name not in classified:  # the op failed; it is counted in ``failed``
            continue
        results = classified[scene.name]
        detect = None
        if scene.name in detected:
            rows, metrics = detected[scene.name]
            detect = (rows, wl.target)
            truth = parse_truth_csv(truth_path(workdir, scene).read_text())
            hits, n = oracle.precision_oracle(rows, truth)
            if (hits, n) != (metrics.in_box, metrics.n_detections):
                errors.append(f"{scene.name}: evaluate gives {metrics.in_box}/{metrics.n_detections} "
                              f"in box, recount gives {hits}/{n}")
            in_box += hits
            n_det += n
        errs, case = check_recording(tp, model, scene, seed, workdir, results, detect)
        errors += errs
        if not errs:
            missed = oracle.self_test(case)
            errors += [f"{scene.name}: self-test not caught: {m}" for m in missed]
        correct += sum(r.label == scene.label for r in results)
        total += len(results)

        kept, leaves, float_leaves = case["kept"], case["leaves"], case["float_leaves"]
        counts["kept_events"] += len(kept)
        counts["refractory_rejects"] += case["rejects"][0]
        counts["noise_rejects"] += case["rejects"][1]
        counts["windows"] += len(results)
        counts["trailing_events_dropped"] += len(kept) % cfg.s_window
        leaves_seen[leaves] = True
        # tree leaf vs exact nearest dictionary entry, on the float tree
        tree_leaves = float_leaves if hardware else leaves
        sample = rng.choice(len(kept), size=min(NN_SAMPLE, len(kept)), replace=False)
        z = case["projected"]
        nn_same += sum(int(exact_nn(tp.dictionary.centroids, z[i]) == tree_leaves[i])
                       for i in sample.tolist())
        nn_n += len(sample)
        if hardware:
            same_leaf += int((leaves == float_leaves).sum())
            n_leaf += len(leaves)
            float_labels = oracle.float_labels(tp, float_leaves)
            agree += sum(a == b.label for a, b in zip(float_labels, results))
            n_win += len(results)
    figures = {"accuracy": correct / total if total else 0.0,
               "precision": in_box / n_det if n_det else 0.0}
    if figures["accuracy"] < ACCURACY_FLOOR:
        errors.append(f"window accuracy {figures['accuracy']:.3f} ({correct}/{total}) below {ACCURACY_FLOOR}")
    if figures["precision"] < PRECISION_FLOOR:
        errors.append(f"detection precision {figures['precision']:.3f} ({in_box}/{n_det}) below {PRECISION_FLOOR}")
    counts["leaves_used"] = int(leaves_seen.sum())
    counts["nn_agreement"] = nn_same / nn_n if nn_n else None
    # diagnostics of a model with a ROM and a fixed-point scorer only; they
    # are printed with the ground-truth figures, not reported as metrics
    if n_leaf:
        figures["quantized_leaf_agreement"] = same_leaf / n_leaf
    if n_win:
        figures["fixed_float_agreement"] = agree / n_win
        if agree / n_win < AGREEMENT_FLOOR:
            errors.append(f"fixed/float label agreement {agree / n_win:.3f} below {AGREEMENT_FLOOR}")
    return errors, figures, counts


def check_roundtrip(model, reloaded, desc, leaves) -> list[str]:
    """``reloaded`` is ``load_bundle`` of ``model``'s saved bytes; from the
    same descriptors it must give ``model``'s leaves, labels and scores.
    ``leaves`` are ``reloaded``'s."""
    cfg = model.config
    own = model.descend_leaves(model.project_features(desc), cfg.profile)
    same = model.class_names == reloaded.class_names and np.array_equal(own, leaves)
    for start, end in window_spans(len(own), cfg.s_window):
        if not same:
            break
        counts = np.bincount(own[start:end], minlength=model.tree.n_points)
        same = np.array_equal(model.window_scores(counts, cfg.profile),
                              reloaded.window_scores(counts, cfg.profile))
    return [] if same else ["load_bundle(save_bundle(model)) changes leaves or scores"]


def same_results(a, b) -> bool:
    return len(a) == len(b) and all(
        x.t_end == y.t_end and x.label == y.label and np.array_equal(x.scores, y.scores)
        for x, y in zip(a, b)
    )


def same_outputs(a: list, b: list) -> bool:
    """Outputs of one op in two rounds: [window results] or [detect rows, metrics]."""
    return same_results(a[0], b[0]) if len(a) == 1 else a == b
