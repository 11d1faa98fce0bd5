"""Computations made apart from the program, the checks that compare the
program's outputs with them, and a self-test for every check.

Nothing here calls the layer it checks: the filter is a sort-based batch
computation instead of a per-event loop, descriptors are recounted from the
last FIFO-capacity kept events, window scores and heat-map positions are
recomputed by bincount from leaves found by the per-event reference descent.
Each check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from evrect.events import EventStream
from evrect.kdtree import descend, quantized_descend

NEIGHBOURS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def filter_oracle(x, y, t, n_rows: int, n_cols: int, theta_ref: int, theta_noise: int):
    """Kept indices of the refractory + 8-neighbour cascade, and the number
    of events each stage rejected.

    Refractory: an event passes unless the previous event at its pixel (any
    event, kept or not) is at most ``theta_ref`` older.  Noise, over the
    refractory survivors only: an event passes when the latest earlier
    survivor at some neighbouring pixel is less than ``theta_noise`` older.
    """
    n = len(t)
    pix = y * n_cols + x
    order = np.lexsort((np.arange(n), pix))
    ps = pix[order]
    same = ps[1:] == ps[:-1]
    has_prev = np.zeros(n, dtype=bool)
    prev_t = np.zeros(n, dtype=np.int64)
    has_prev[order[1:][same]] = True
    prev_t[order[1:][same]] = t[order[:-1][same]]
    ref_ok = ~has_prev | (t - prev_t > theta_ref)

    surv = np.flatnonzero(ref_ok)
    m = len(surv)
    sx, sy, st = x[surv], y[surv], t[surv]
    j = np.arange(m, dtype=np.int64)
    keys = np.sort((sy * n_cols + sx) * m + j)
    ok = np.zeros(m, dtype=bool)
    for dx, dy in NEIGHBOURS:
        nx, ny = sx + dx, sy + dy
        valid = (nx >= 0) & (nx < n_cols) & (ny >= 0) & (ny < n_rows)
        npix = ny * n_cols + nx
        pos = np.searchsorted(keys, npix * m + j, side="left") - 1
        prev = keys[np.maximum(pos, 0)]
        hit = valid & (pos >= 0) & (prev // m == npix)
        ok |= hit & (st - st[prev % m] < theta_noise)
    return surv[ok], n - m, m - int(ok.sum())


def recount_counts(kx, ky, i: int, rect_cfg) -> np.ndarray:
    """Event counts of the w x w pooled cells around kept event i, over the
    events in its FIFO, (i - s, i], row-major."""
    s, p, q, w = rect_cfg.s, rect_cfg.p, rect_cfg.q, rect_cfg.w
    lo = max(0, i - s + 1)
    r = ky[lo : i + 1] // p - (ky[i] // p - w // 2)
    c = kx[lo : i + 1] // q - (kx[i] // q - w // 2)
    inside = (r >= 0) & (r < w) & (c >= 0) & (c < w)
    return np.bincount(r[inside] * w + c[inside], minlength=w * w)


def descriptor_values(counts: np.ndarray, rect_cfg) -> np.ndarray:
    """Counts averaged over the pool area and, if configured, unit-normalised."""
    vals = counts.astype(np.float64) / (rect_cfg.p * rect_cfg.q)
    if rect_cfg.normalize:
        norm = np.sqrt(vals @ vals)
        if norm > 0.0:
            vals /= norm
    return vals


def reference_leaves(tp, projected: np.ndarray, profile: str) -> np.ndarray:
    """Leaf of every row by the per-event reference descent: ``descend`` on
    the float tree, or ``quantized_descend`` on the packed ROM words."""
    if profile == "hardware":
        return np.fromiter((quantized_descend(tp.packed, z) for z in projected), np.int64, len(projected))
    return np.fromiter((descend(tp.tree, z) for z in projected), np.int64, len(projected))


def float_scores(tp, counts: np.ndarray) -> np.ndarray:
    """The float profile's window scores: the SVM on the L1-normalised histogram."""
    return (counts / counts.sum()) @ tp.svm.weights.T + tp.svm.bias


def float_labels(tp, leaves: np.ndarray) -> list[str]:
    """The float profile's label of every full window of leaves."""
    s, k = tp.config.s_window, tp.tree.n_points
    labels = []
    for w in range(len(leaves) // s):
        scores = float_scores(tp, np.bincount(leaves[w * s : (w + 1) * s], minlength=k))
        labels.append(tp.class_names[int(np.argmax(scores))])
    return labels


def fixed_point_weights(tp) -> np.ndarray:
    """(w + b) / S scaled by 2^frac_bits and rounded, per class and leaf."""
    cfg = tp.config
    w = (tp.svm.weights + tp.svm.bias[:, None]) / cfg.s_window
    return np.rint(w * float(1 << cfg.frac_bits)).astype(np.int64)


# ---------------------------------------------------------------- checks


def check_parse(parsed, generated) -> list[str]:
    for name in ("x", "y", "t", "p"):
        if not np.array_equal(getattr(parsed, name), getattr(generated, name)):
            return [f"parse: column {name} differs from the generated recording"]
    return []


def check_filter(kept, raw, keep_idx) -> list[str]:
    if len(kept) != len(keep_idx):
        return [f"filter: kept {len(kept)} events, oracle keeps {len(keep_idx)}"]
    for name in ("x", "y", "t", "p"):
        if not np.array_equal(getattr(kept, name), getattr(raw, name)[keep_idx]):
            return [f"filter: kept column {name} differs from the oracle's"]
    return []


def check_descriptors(rows: np.ndarray, desc_rows: np.ndarray, kept, rect_cfg) -> list[str]:
    kx, ky = kept.x, kept.y
    for i, got in zip(rows.tolist(), desc_rows):
        if not np.array_equal(got, descriptor_values(recount_counts(kx, ky, i, rect_cfg), rect_cfg)):
            return [f"descriptors: row {i} differs from the recount of its FIFO"]
    return []


def check_leaves(batch: np.ndarray, reference: np.ndarray) -> list[str]:
    if len(batch) != len(reference):
        return [f"leaves: {len(batch)} batch leaves for {len(reference)} events"]
    bad = np.flatnonzero(batch != reference)
    if bad.size:
        return [f"leaves: {bad.size} batch leaves differ from the per-event descent (first at {bad[0]})"]
    return []


def check_self_retrieval(tp) -> list[str]:
    for k, entry in enumerate(tp.dictionary.centroids):
        if descend(tp.tree, entry) != k:
            return [f"tree: dictionary entry {k} does not descend to its own leaf"]
    return []


def check_windows(results, kept_t, leaves, tp, profile: str) -> list[str]:
    s = tp.config.s_window
    n_win = len(kept_t) // s
    if len(results) != n_win:
        return [f"windows: {len(results)} windows for {len(kept_t)} kept events, expected {n_win}"]
    k = tp.tree.n_points
    fixed = fixed_point_weights(tp) if profile == "hardware" else None
    for w, r in enumerate(results):
        if r.t_end != int(kept_t[(w + 1) * s - 1]):
            return [f"windows: window {w} ends at {r.t_end}, its last kept event is at {kept_t[(w + 1) * s - 1]}"]
        if r.label != tp.class_names[int(np.argmax(r.scores))]:
            return [f"windows: window {w} label {r.label} is not the argmax of its scores"]
        counts = np.bincount(leaves[w * s : (w + 1) * s], minlength=k)
        if fixed is not None:
            if not np.array_equal(r.scores, fixed @ counts):
                return [f"windows: window {w} fixed-point scores differ from the recomputation"]
        else:
            if not np.allclose(r.scores, float_scores(tp, counts), rtol=1e-9, atol=1e-12):
                return [f"windows: window {w} scores differ from the recomputation"]
    return []


def check_detect(rows, kept, leaves, tp, target: str) -> list[str]:
    s_window = tp.config.s_window
    n_cols = tp.config.geometry.n_cols
    n_win = len(kept) // s_window
    if len(rows) != n_win:
        return [f"detect: {len(rows)} windows, expected {n_win}"]
    mask = np.zeros(tp.tree.n_points, dtype=bool)
    mask[list(tp.landmarks[target].landmarks)] = True
    for w, r in enumerate(rows):
        sl = slice(w * s_window, (w + 1) * s_window)
        hit = mask[leaves[sl]]
        pix = kept.y[sl][hit] * n_cols + kept.x[sl][hit]
        n_hits = len(pix)
        if n_hits:
            cnt = np.bincount(pix)
            threshold = int(cnt.max())
            at = np.flatnonzero(cnt == threshold)
            n = len(at)
            # mean of the pixels at the maximum count, rounded half up
            x = (2 * int((at % n_cols).sum()) + n) // (2 * n)
            y = (2 * int((at // n_cols).sum()) + n) // (2 * n)
        else:
            threshold, x, y = 0, None, None
        got = (r.t_end, r.landmark_hits, r.threshold, r.x, r.y)
        want = (int(kept.t[sl.stop - 1]), n_hits, threshold, x, y)
        if got != want:
            return [f"detect: window {w} (t_end, hits, threshold, x, y) = {got}, recomputed {want}"]
    return []


def precision_oracle(rows, truth) -> tuple[int, int]:
    """(in-box detections, detections): a detection is in the box of the
    truth window that covers its timestamp."""
    in_box = 0
    n = 0
    for r in rows:
        if r.x is None:
            continue
        n += 1
        for tw in truth:
            if tw.t_start <= r.t_end < tw.t_end:
                b = tw.box
                in_box += b.x_min <= r.x <= b.x_max and b.y_min <= r.y <= b.y_max
                break
    return in_box, n


# ---------------------------------------------------------------- self-tests


def self_test(case: dict) -> list[str]:
    """Feed every check one deliberately corrupted output; each must fail.

    ``case`` holds one recording's checked outputs (see verify.check_recording).
    Returns the names of corruptions that a check did not catch."""
    tp, profile = case["tp"], case["profile"]
    raw, kept, keep_idx = case["raw"], case["kept"], case["keep_idx"]
    missed = []

    generated = case["generated"]
    bad_t = generated.t.copy()
    bad_t[len(bad_t) // 2] += 1
    if not check_parse(EventStream(generated.geometry, generated.x, generated.y, bad_t, generated.p,
                                   validate=False), generated):
        missed.append("parse: one timestamp changed")

    flipped = np.delete(keep_idx, len(keep_idx) // 2)
    if not check_filter(raw.slice(flipped), raw, keep_idx):
        missed.append("filter: one flipped decision")

    rows, desc_rows = case["desc_check"]
    i = int(rows[0])
    rect_cfg = tp.config.rect_cfg
    counts = recount_counts(kept.x, kept.y, i, rect_cfg)
    # the least-filled cell, so that normalisation cannot hide the change
    counts[int(np.argmin(counts))] += 1
    bad_rows = desc_rows.copy()
    bad_rows[0] = descriptor_values(counts, rect_cfg)
    if not check_descriptors(rows, bad_rows, kept, rect_cfg):
        missed.append("descriptors: one cell off by one count")

    leaves, ref = case["leaves"], case["ref_leaves"]
    swapped = leaves.copy()
    swapped[len(swapped) // 2] = (swapped[len(swapped) // 2] + 1) % tp.tree.n_points
    if not check_leaves(swapped, ref):
        missed.append("leaves: one swapped leaf")

    results = case["results"]
    w = len(results) // 2
    other = next(n for n in tp.class_names if n != results[w].label)
    relabelled = list(results)
    relabelled[w] = replace(results[w], label=other)
    if not check_windows(relabelled, kept.t, ref, tp, profile):
        missed.append("windows: one changed label")
    scores = results[w].scores.copy()
    scores[0] += 1 if profile == "hardware" else 1e-6 * max(1.0, abs(float(scores[0])))
    rescored = list(results)
    rescored[w] = replace(results[w], scores=scores)
    if not check_windows(rescored, kept.t, ref, tp, profile):
        missed.append("windows: one changed score")

    if case["detect"] is not None:
        drows, target = case["detect"]
        j = next((j for j, r in enumerate(drows) if r.x is not None), 0)
        moved = list(drows)
        moved[j] = replace(drows[j], x=(drows[j].x or 0) + 1)
        if not check_detect(moved, kept, ref, tp, target):
            missed.append("detect: one moved heat-map position")
    return missed

