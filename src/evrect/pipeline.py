"""End-to-end orchestration: training, windowed inference, detection,
benchmarking, and the bundle mapping that makes a trained pipeline a
single reloadable artifact.

Two inference profiles share one trained bundle.  The float profile
descends the float tree and scores with the trained SVM; the hardware
profile descends the packed quantized tree and accumulates fixed-point
integer scores.  Descriptor normalization is a training-time property
recorded in the bundle, so switching profiles at inference never
changes the feature computation, only descent and scoring numerics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from . import _native
from . import bundle as bundle_mod
from . import pca as pca_mod
from .classifier import (
    StreamModel,
    SvmModel,
    classify_batch,
    export_stream,
    scores_of,
    train as svm_train,
)
from .detector import DetectorModel, compute_stats, heat_spot, select_landmarks
from .dictionary import Dictionary, learn, window_spans, windows_from_leaves
from .errors import CapacityError, DataError
from .events import EventStream, SensorGeometry
from .filtering import FilterConfig, cascade
from .kdtree import (
    KdTree,
    PackedTree,
    VirtualProjection,
    batch_descent,
    build,
    check_tree,
    descend_batch,
    harvest_dims,
    node_columns,
    pack,
    structural_equal,
    unpack,
)
from .pca import PcaModel
from .rect import RectConfig, RectState, batch_pooled

PCA_MODES = ("none", "pca", "vpca")
PROFILES = ("float", "hardware")


@dataclass(frozen=True)
class PipelineConfig:
    geometry: SensorGeometry = SensorGeometry()
    filter_cfg: FilterConfig = FilterConfig()
    rect_cfg: RectConfig = RectConfig()
    pca_mode: str = "vpca"
    pca_energy: float = 0.95
    pca_dims: int | None = None
    k: int = 3000             # dictionary size
    s_window: int = 100_000   # events per classification window; 0 = whole stream
    n_landmarks: int = 20
    profile: str = "float"
    seed: int = 0
    sample_cap: int = 100_000
    svm_lambda: float = 1e-4
    svm_epochs: int = 200
    frac_bits: int = 24

    def __post_init__(self) -> None:
        if self.pca_mode not in PCA_MODES:
            raise DataError(f"pca mode {self.pca_mode!r} not one of {PCA_MODES}")
        if self.profile not in PROFILES:
            raise DataError(f"profile {self.profile!r} not one of {PROFILES}")
        if self.k < 2:
            raise DataError("dictionary size must be at least 2")
        if self.s_window < 0:
            raise DataError("window size must be non-negative")
        if self.profile == "hardware" and self.s_window == 0:
            raise DataError("the hardware profile needs a fixed window size")
        if self.n_landmarks < 1:
            raise DataError("landmark count must be at least 1")
        if self.sample_cap < 2:
            raise DataError("sample cap must be at least 2")
        if self.profile == "hardware" and self.rect_cfg.normalize:
            # the hardware pipeline has no normalizer stage
            object.__setattr__(self, "rect_cfg", replace(self.rect_cfg, normalize=False))


# The pipeline's config keys, as a bundle's META "config" and `key = value`
# config files name them: (key, PipelineConfig attribute, kind).  A kind is
# "int", "float", "bool", "str", "int?" (an integer or unset) or "pair": the
# sensor geometry, [rows, cols] in a bundle and the `rows` and `cols` keys in
# a config file.  The defaults are the dataclasses'.
_CONFIG_KEYS = (
    ("geometry", "geometry", "pair"),
    ("theta_noise_us", "filter_cfg.theta_noise_us", "int"),
    ("theta_ref_us", "filter_cfg.theta_ref_us", "int"),
    ("fifo_capacity", "rect_cfg.s", "int"),
    ("pool_p", "rect_cfg.p", "int"),
    ("pool_q", "rect_cfg.q", "int"),
    ("patch_w", "rect_cfg.w", "int"),
    ("normalize", "rect_cfg.normalize", "bool"),
    ("pca_mode", "pca_mode", "str"),
    ("pca_energy", "pca_energy", "float"),
    ("pca_dims", "pca_dims", "int?"),
    ("dictionary_k", "k", "int"),
    ("window_s", "s_window", "int"),
    ("landmarks_d", "n_landmarks", "int"),
    ("profile", "profile", "str"),
    ("seed", "seed", "int"),
    ("sample_cap", "sample_cap", "int"),
    ("svm_lambda", "svm_lambda", "float"),
    ("svm_epochs", "svm_epochs", "int"),
    ("frac_bits", "frac_bits", "int"),
)


def _with_attrs(obj, values: dict):
    """The dataclass ``obj`` with the attributes at the dotted paths of
    ``values`` set; each dataclass is rebuilt once, so its checks run."""
    top, nested = {}, {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            top[head] = value
    for head, inner in nested.items():
        top[head] = _with_attrs(getattr(obj, head), inner)
    return replace(obj, **top)


@dataclass(frozen=True)
class WindowResult:
    t_end: int
    label: str
    scores: np.ndarray


@dataclass(frozen=True)
class DetectWindow:
    t_end: int
    x: int | None
    y: int | None
    threshold: int
    landmark_hits: int


@dataclass
class TrainedPipeline:
    config: PipelineConfig
    class_names: tuple[str, ...]
    dictionary: Dictionary
    tree: KdTree
    svm: SvmModel
    landmarks: dict[str, DetectorModel]
    pca_model: PcaModel | None = None
    vproj: VirtualProjection | None = None
    packed: PackedTree | None = None
    stream_model: StreamModel | None = None
    stats: dict = field(default_factory=dict)
    _qtree: KdTree | None = field(default=None, repr=False, compare=False)

    def project_features(self, descriptors: np.ndarray) -> np.ndarray:
        """The descriptors in the tree's feature space, as a new matrix; the
        classify path itself descends a vPCA tree on the descriptors in place."""
        if self.pca_model is not None:
            return pca_mod.project(self.pca_model, descriptors)
        if self.vproj is not None:
            return self.vproj.restrict(descriptors)
        return np.asarray(descriptors, dtype=np.float64)

    def quantized_tree(self) -> KdTree:
        if self.packed is None:
            raise DataError("bundle carries no packed tree; hardware profile unavailable")
        if self._qtree is None:
            self._qtree = unpack(self.packed, self.tree.dim)
        return self._qtree

    def profile_tree(self, profile: str) -> KdTree:
        return self.quantized_tree() if profile == "hardware" else self.tree

    def descend_leaves(self, projected: np.ndarray, profile: str) -> np.ndarray:
        return descend_batch(self.profile_tree(profile), projected)

    def window_scores(self, counts: np.ndarray, profile: str) -> np.ndarray:
        if profile == "hardware":
            sm = self.stream_model
            if sm is None:
                raise DataError("bundle was not trained for the hardware profile")
            return sm.weights @ counts.astype(np.int64)
        return scores_of(self.svm, counts)


def _resolve_profile(tp: TrainedPipeline, profile: str | None) -> str:
    prof = profile or tp.config.profile
    if prof not in PROFILES:
        raise DataError(f"profile {prof!r} not one of {PROFILES}")
    return prof


# rows per block of the blocked describe -> normalise -> project -> descend
# path (1.3 MB at w = 9)
_BLOCK_ROWS = 2048


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # np.vecdot gives each row's ``v @ v`` bit for bit, as RectState does
    return np.sqrt(np.vecdot(rows, rows))


def _normalize(rows: np.ndarray, norm: np.ndarray) -> None:
    """Divide each row by its norm, in place, where that is > 0."""
    np.divide(rows, norm[:, None], out=rows, where=norm[:, None] > 0.0)


class _RectReplay:
    """``_native.PatchBlocks`` as a :class:`RectState` replay, for hosts
    without the kernels: the same unnormalised patches, bit for bit, filled
    a block at a time into the first rows of one reused ``buffer``."""

    def __init__(self, geometry: SensorGeometry, rect_cfg: RectConfig, filtered: EventStream,
                 rows: int) -> None:
        self._state = RectState(geometry, replace(rect_cfg, normalize=False))
        self._x, self._y = filtered.x, filtered.y
        self.buffer = np.empty((rows, rect_cfg.dim), dtype=np.float64)
        self.done = 0

    def fill(self, stop: int) -> np.ndarray:
        """The patches of events ``done`` to ``stop``, written to the first
        rows of ``buffer``; returns a view of those rows."""
        start, state = self.done, self._state
        for i, (x, y) in enumerate(zip(self._x[start:stop].tolist(), self._y[start:stop].tolist())):
            state.push(x, y)
            self.buffer[i] = state.extract_values(x, y)
        self.done = stop
        return self.buffer[: stop - start]


def _patch_blocks(geometry: SensorGeometry, rect_cfg: RectConfig, filtered: EventStream, rows: int):
    """The filtered events' patches, a block of up to ``rows`` at a time:
    the C patch copy, or its replay without the kernels.  The coordinates
    are checked first, since the C copy indexes memory with them."""
    filtered.check_coordinates(geometry)
    blocks = _native.patch_blocks(filtered.x, filtered.y, geometry.n_rows, geometry.n_cols,
                                  rect_cfg.s, rect_cfg.p, rect_cfg.q, rect_cfg.w, rows)
    return _RectReplay(geometry, rect_cfg, filtered, rows) if blocks is None else blocks


def extract_stream_descriptors(
    geometry: SensorGeometry, rect_cfg: RectConfig, filtered: EventStream
) -> tuple[np.ndarray, str]:
    """One descriptor per filtered event, read from the count matrix right
    after the event entered the FIFO, as one whole-stream block of
    :func:`_patch_blocks`, and which kernels filled it: ``"native"`` or
    ``"python"``, with the same bits.  The program describes a block of rows
    at a time instead (:func:`_descriptor_blocks`); checks and tests read
    this matrix."""
    n = len(filtered)
    blocks = _patch_blocks(geometry, rect_cfg, filtered, n)
    out = blocks.fill(n)
    if rect_cfg.normalize:
        _normalize(out, _row_norms(out))
    return out, "python" if isinstance(blocks, _RectReplay) else "native"


def _descriptor_blocks(
    geometry: SensorGeometry, rect_cfg: RectConfig, filtered: EventStream, clock=nullcontext
):
    """Each filtered event's descriptor, a block of rows at a time, through
    one reused buffer: yields ``(start, stop, rows, norm)``, where the first
    ``stop - start`` rows of ``rows`` belong to events ``start`` to ``stop``
    and the rest hold earlier events.  ``norm`` holds those rows' norms when
    they are still to be divided by them, and is None when the rows are
    final.  Filling a block and its norms runs inside ``clock("describe")``."""
    n = len(filtered)
    blocks = _patch_blocks(geometry, rect_cfg, filtered, max(1, min(n, _BLOCK_ROWS)))
    for start in range(0, n, len(blocks.buffer)):
        stop = min(n, start + len(blocks.buffer))
        with clock("describe"):
            block = blocks.fill(stop)
            norm = _row_norms(block) if rect_cfg.normalize else None
        yield start, stop, blocks.buffer, norm


def _stream_leaves(
    geometry: SensorGeometry, rect_cfg: RectConfig, tree: KdTree, pca_model: PcaModel | None,
    vproj: VirtualProjection | None, filtered: EventStream, clock=nullcontext,
) -> np.ndarray:
    """The leaf each filtered event reaches.  Where the descriptors are
    neither normalised nor PCA-projected, one C call walks the tree on the
    FIFO's pooled grid, timed as ``clock("describe")``, and builds no row.
    Otherwise the rows are described a block at a time: a row is normalised
    by the descent as it reads it; PCA divides the block and projects it
    first; a virtual projection only names the columns the tree reads, in
    place.  Each stage runs inside ``clock(stage)``."""
    columns = None if vproj is None else vproj.kept_dims
    if pca_model is None and not rect_cfg.normalize:
        descent = _native.descent(node_columns(tree, rect_cfg.dim, columns), tree.split_val,
                                  tree.left, tree.right, tree.leaf_index)
        if descent is not None:
            with clock("describe"):
                return _patch_blocks(geometry, rect_cfg, filtered, 0).leaves(descent)
    leaves = np.empty(len(filtered), dtype=np.int64)
    walk = batch_descent(tree, tree.dim if pca_model is not None else rect_cfg.dim, columns)
    for start, stop, rows, norm in _descriptor_blocks(geometry, rect_cfg, filtered, clock):
        queries = rows[: stop - start]
        with clock("project"):
            if pca_model is not None:
                if norm is not None:
                    _normalize(queries, norm)
                    norm = None
                # every block is projected with all its rows, so that each
                # product has the row count of the first: BLAS sums a few
                # rows in another order than many.  (For one component,
                # OpenBLAS's matrix-vector path also sums the last n mod 4
                # rows of a whole matrix in another order.)
                queries = pca_mod.project(pca_model, rows)[: stop - start]
        with clock("descend"):
            leaves[start:stop] = walk(queries, norm)
    return leaves


def _sample_rows(
    geometry: SensorGeometry, rect_cfg: RectConfig, filtered: EventStream, rows: np.ndarray
) -> np.ndarray:
    """The descriptors of the filtered events at ``rows`` (ascending),
    collected from the blocks that hold them; no block past the last row is
    described."""
    out = np.empty((len(rows), rect_cfg.dim), dtype=np.float64)
    for start, stop, block, norm in _descriptor_blocks(geometry, rect_cfg, filtered):
        lo, hi = np.searchsorted(rows, (start, stop))
        at = rows[lo:hi] - start
        out[lo:hi] = block[at]
        if norm is not None:
            _normalize(out[lo:hi], norm[at])
        if hi == len(rows):
            break
    return out


def fifo_snapshot(
    geometry: SensorGeometry, rect_cfg: RectConfig, filtered: EventStream, i: int
) -> tuple[np.ndarray, np.ndarray]:
    """The count matrix and raw pooled sums of a :class:`RectState` right
    after filtered event ``i`` entered it, rebuilt from the events its FIFO
    then holds: the last ``s`` up to ``i``."""
    lo = max(0, i + 1 - rect_cfg.s)
    cells = filtered.y[lo : i + 1] * geometry.n_cols + filtered.x[lo : i + 1]
    counts = np.bincount(cells, minlength=geometry.n_rows * geometry.n_cols)
    counts = counts.reshape(geometry.n_rows, geometry.n_cols)
    return counts, batch_pooled(counts, rect_cfg.p, rect_cfg.q)


def _stream_model(svm: SvmModel, config: PipelineConfig) -> StreamModel | None:
    """The hardware profile's fixed-point window scorer weights; None for
    the float profile, which scores a window with the SVM itself."""
    if config.profile != "hardware":
        return None
    return export_stream(svm, config.s_window, fixed_point=True, frac_bits=config.frac_bits)


@contextmanager
def _stage(name: str):
    """Prefix a DataError raised inside with ``name: ``, once: an error an
    inner stage has prefixed passes through as it is."""
    try:
        yield
    except DataError as exc:
        if not getattr(exc, "_staged", False):
            exc._staged = True
            exc.args = (f"{name}: {exc.args[0]}",) if exc.args else (name,)
        raise


def train_pipeline(
    config: PipelineConfig,
    labeled_streams: list[tuple[str, EventStream]],
    log=None,
) -> TrainedPipeline:
    """Run the full learning stage over labeled event streams, filtered
    once and held in memory (see :func:`train_filtered`)."""
    say = log or (lambda msg: None)
    with _stage("filter"):
        filtered = [(label, cascade(stream, config.filter_cfg)) for label, stream in labeled_streams]
    say(f"filtered {sum(len(s) for _, s in filtered)} events from {len(filtered)} streams")
    return train_filtered(config, filtered, say)


def train_filtered(config: PipelineConfig, streams, log=None) -> TrainedPipeline:
    """The learning stage over ``streams``, a sized re-iterable of (label,
    filtered stream) pairs that is read in two passes, so that a source may
    read its recordings again instead of holding them: pass 1 samples the
    descriptors and counts the events, windows and classes; pass 2 descends
    every event into the training histograms."""
    say = log or (lambda msg: None)
    if len(streams) == 0:
        raise DataError("no training streams")
    rng = np.random.default_rng(config.seed)

    # pass 1: sample descriptors for subspace and dictionary learning
    quota_base, quota_extra = divmod(config.sample_cap, len(streams))
    n_events = n_windows = 0
    labels: set[str] = set()
    sampled: list[np.ndarray] = []
    with _stage("descriptor sampling"):
        for i, (label, stream) in enumerate(streams):
            labels.add(label)
            n_events += len(stream)
            n_windows += len(window_spans(len(stream), config.s_window))
            take = min(quota_base + (1 if i < quota_extra else 0), len(stream))
            if take:
                rows = np.sort(rng.choice(len(stream), size=take, replace=False))
                sampled.append(_sample_rows(config.geometry, config.rect_cfg, stream, rows))
    stats: dict = {"filtered_events": n_events}
    if n_events == 0:
        raise DataError("filtering removed every event")
    if not sampled:
        raise DataError("descriptor sampling: sample cap too small to draw anything")
    samples = np.concatenate(sampled, axis=0)
    stats["sampled_descriptors"] = len(samples)
    say(f"sampled {len(samples)} descriptors")

    pca_model: PcaModel | None = None
    vproj: VirtualProjection | None = None
    if config.pca_mode == "pca":
        with _stage("pca fit"):
            pca_model = pca_mod.fit(samples, energy=config.pca_energy, fixed_dims=config.pca_dims)
        runtime_samples = pca_mod.project(pca_model, samples)
        stats["pca_dims_kept"] = pca_model.n_components
        stats["pca_energy_kept"] = pca_model.energy_kept
        say(f"pca kept {pca_model.n_components} dims ({pca_model.energy_kept:.4f} energy)")
    else:
        runtime_samples = samples

    with _stage("dictionary learning"):
        dict0 = learn(
            runtime_samples,
            config.k,
            seed=config.seed,
            feature_space="rect" if config.pca_mode == "none" else "pca-rect",
        )
    stats["kmeans_iterations"] = len(dict0.inertia_history)
    stats["kmeans_inertia"] = dict0.inertia_history[-1] if dict0.inertia_history else 0.0
    stats["dictionary_k"] = dict0.k
    say(f"dictionary of {dict0.k} entries, inertia {stats['kmeans_inertia']:.6g}")

    with _stage("tree build"):
        if config.pca_mode == "vpca":
            tree_full = build(dict0.centroids)
            vproj = harvest_dims(tree_full)
            centroids = vproj.restrict(dict0.centroids)
            dictionary = Dictionary(
                centroids=centroids,
                feature_space="vpca-rect",
                inertia_history=dict0.inertia_history,
            )
            tree = build(centroids)
            dim_map = {d: i for i, d in enumerate(vproj.kept_dims)}
            stats["vpca_kept_dims"] = len(vproj.kept_dims)
            stats["vpca_structural_identity"] = structural_equal(tree_full, tree, dim_map)
            say(f"virtual projection kept {len(vproj.kept_dims)} of {vproj.source_dim} dims")
        else:
            dictionary = dict0
            tree = build(dictionary.centroids)
    stats["tree_depth"] = tree.depth
    say(f"tree depth {tree.depth} over {tree.n_points} entries")

    # pass 2: descend every training event, window into histograms
    hists = np.empty((n_windows, tree.n_points), dtype=np.float64)
    hist_labels: list[str] = []
    class_names = tuple(sorted(labels))
    per_class_counts = {name: np.zeros(tree.n_points, dtype=np.int64) for name in class_names}
    with _stage("histogram accumulation"):
        for label, stream in streams:
            if len(stream) == 0:
                continue
            leaves = _stream_leaves(config.geometry, config.rect_cfg, tree, pca_model, vproj, stream)
            per_class_counts[label] += np.bincount(leaves, minlength=tree.n_points)
            for counts in windows_from_leaves(leaves, tree.n_points, config.s_window):
                hists[len(hist_labels)] = counts
                hist_labels.append(label)
    if not hist_labels:
        raise DataError("histogram accumulation: no stream filled a full window")
    stats["training_histograms"] = len(hist_labels)
    say(f"{len(hist_labels)} training histograms over {len(class_names)} classes")

    with _stage("svm training"):
        svm = svm_train(
            hists,
            hist_labels,
            lam=config.svm_lambda,
            epochs=config.svm_epochs,
            seed=config.seed,
            class_names=class_names,
        )
    predicted, _ = classify_batch(svm, hists)
    train_acc = float(np.mean([p == l for p, l in zip(predicted, hist_labels)]))
    stats["training_accuracy"] = train_acc
    say(f"training accuracy {train_acc:.4f}")

    with _stage("landmark selection"):
        total_counts = np.zeros(tree.n_points, dtype=np.int64)
        for counts in per_class_counts.values():
            total_counts += counts
        n_landmarks = min(config.n_landmarks, tree.n_points)
        landmarks = {}
        for name in class_names:
            pos = per_class_counts[name]
            neg = total_counts - pos
            landmarks[name] = select_landmarks(compute_stats(pos, neg), n_landmarks)
    stats["landmarks_per_class"] = n_landmarks

    stream_model = _stream_model(svm, config)
    packed = None
    with _stage("tree packing"):
        try:
            packed = pack(tree)
        except CapacityError:
            if config.profile == "hardware":
                raise
            stats["packed"] = False
        else:
            stats["packed"] = True

    return TrainedPipeline(
        config=config,
        class_names=class_names,
        dictionary=dictionary,
        tree=tree,
        svm=svm,
        landmarks=landmarks,
        pca_model=pca_model,
        vproj=vproj,
        packed=packed,
        stream_model=stream_model,
        stats=stats,
    )


class _StageClock:
    """Wall time summed per stage that ran, in the order they first ran,
    read once per stage per block."""

    def __init__(self) -> None:
        self.ns: dict[str, int] = {}

    @contextmanager
    def __call__(self, stage: str):
        start = time.perf_counter_ns()
        yield
        self.ns[stage] = self.ns.get(stage, 0) + time.perf_counter_ns() - start


def _leaves(
    tp: TrainedPipeline, stream: EventStream, prof: str, clock
) -> tuple[EventStream, np.ndarray]:
    """Filter, describe, project, and descend: the filtered events and the
    leaf each one reaches (none when the filter keeps nothing).  Each stage
    runs inside ``clock(stage)``; ``nullcontext`` times nothing."""
    cfg = tp.config
    with clock("filter"):
        filtered = cascade(stream, cfg.filter_cfg)
    if len(filtered) == 0:
        return filtered, np.empty(0, dtype=np.int64)
    leaves = _stream_leaves(cfg.geometry, cfg.rect_cfg, tp.profile_tree(prof), tp.pca_model,
                            tp.vproj, filtered, clock)
    return filtered, leaves


def _classify(
    tp: TrainedPipeline, stream: EventStream, prof: str, clock
) -> tuple[EventStream, list[WindowResult]]:
    filtered, leaves = _leaves(tp, stream, prof, clock)
    spans = window_spans(len(filtered), tp.config.s_window)
    out = []
    with clock("score"):
        windows = windows_from_leaves(leaves, tp.tree.n_points, tp.config.s_window)
        for (_, end), counts in zip(spans, windows):
            scores = tp.window_scores(counts, prof)
            label = tp.class_names[int(np.argmax(scores))]
            out.append(WindowResult(t_end=int(filtered.t[end - 1]), label=label, scores=scores))
    return filtered, out


def run_classify(
    tp: TrainedPipeline, stream: EventStream, profile: str | None = None
) -> list[WindowResult]:
    """Filter, describe, descend, and classify each full window."""
    return _classify(tp, stream, _resolve_profile(tp, profile), nullcontext)[1]


def run_detect(
    tp: TrainedPipeline,
    stream: EventStream,
    target: str,
    profile: str | None = None,
) -> list[DetectWindow]:
    """Per-window landmark heat-map localization of one target class."""
    prof = _resolve_profile(tp, profile)
    cfg = tp.config
    if target not in tp.landmarks:
        raise DataError(f"unknown target class {target!r}; bundle has {tp.class_names}")
    model = tp.landmarks[target]
    filtered, leaves = _leaves(tp, stream, prof, nullcontext)
    mask = model.mask(tp.tree.n_points)
    out = []
    for start, end in window_spans(len(filtered), cfg.s_window):
        hit_idx = np.flatnonzero(mask[leaves[start:end]]) + start
        spot, threshold = heat_spot(filtered.x[hit_idx], filtered.y[hit_idx], cfg.geometry)
        out.append(
            DetectWindow(
                t_end=int(filtered.t[end - 1]),
                x=None if spot is None else spot[0],
                y=None if spot is None else spot[1],
                threshold=threshold,
                landmark_hits=len(hit_idx),
            )
        )
    return out


@dataclass(frozen=True)
class BenchReport:
    n_events: int
    accepted_events: int
    total_seconds: float
    events_per_sec: float
    stage_us: dict[str, float]  # wall time per input event
    kernels: str                # "native" (the C loops) or "python"

    def as_text(self) -> str:
        lines = [
            f"kernels          : {self.kernels}",
            f"events processed : {self.n_events}",
            f"events accepted  : {self.accepted_events}",
            f"wall time        : {self.total_seconds:.3f} s",
            f"throughput       : {self.events_per_sec:.0f} events/s",
        ]
        for name, us in self.stage_us.items():
            lines.append(f"stage {name:<10} : {us:.3f} us/event")
        return "\n".join(lines)


def run_bench(tp: TrainedPipeline, stream: EventStream, profile: str | None = None) -> BenchReport:
    """Time ``run_classify``'s own path, stage by stage; reporting only."""
    prof = _resolve_profile(tp, profile)
    kernels = "python" if _native.load() is None else "native"
    n = len(stream)
    if n == 0:
        return BenchReport(0, 0, 0.0, 0.0, {}, kernels)
    clock = _StageClock()
    begin = time.perf_counter_ns()
    filtered, _ = _classify(tp, stream, prof, clock)
    total_s = (time.perf_counter_ns() - begin) / 1e9
    return BenchReport(
        n_events=n,
        accepted_events=len(filtered),
        total_seconds=total_s,
        events_per_sec=n / total_s if total_s > 0 else 0.0,
        stage_us={k: v / n / 1e3 for k, v in clock.ns.items()},
        kernels=kernels,
    )


def save_bundle(tp: TrainedPipeline) -> bytes:
    config = {}  # each value as the config holds it
    for key, attr, kind in _CONFIG_KEYS:
        value = attrgetter(attr)(tp.config)
        config[key] = [value.n_rows, value.n_cols] if kind == "pair" else value
    meta = {
        "kind": "evrect-pipeline",
        "config": config,
        "class_names": list(tp.class_names),
        "feature_space": tp.dictionary.feature_space,
        "kept_dims": list(tp.vproj.kept_dims) if tp.vproj is not None else None,
        "source_dim": tp.vproj.source_dim if tp.vproj is not None else None,
        "pca_energy_kept": tp.pca_model.energy_kept if tp.pca_model is not None else None,
        "packed_range": [tp.packed.vmin, tp.packed.vmax] if tp.packed is not None else None,
        "tree_dim": tp.tree.dim,
        "stats": tp.stats,
    }
    sections: dict[str, dict[str, np.ndarray]] = {
        "DICT": {"centroids": tp.dictionary.centroids},
        "TREE": {
            "is_leaf": tp.tree.is_leaf,
            "split_dim": tp.tree.split_dim,
            "split_val": tp.tree.split_val,
            "left": tp.tree.left,
            "right": tp.tree.right,
            "leaf_index": tp.tree.leaf_index,
        },
        "SVM_": {"weights": tp.svm.weights, "bias": tp.svm.bias},
        "LAND": {
            "landmarks": np.asarray(
                [tp.landmarks[name].landmarks for name in tp.class_names], dtype=np.int64
            )
        },
    }
    if tp.pca_model is not None:
        sections["PCA_"] = {
            "mean": tp.pca_model.mean,
            "components": tp.pca_model.components,
            "eigenvalues": tp.pca_model.eigenvalues,
        }
    if tp.packed is not None:
        sections["PACK"] = {"words": tp.packed.words}
    return bundle_mod.write_bundle(meta, sections)


# kind: (a test of a decoded JSON value, what passes it); a bool is no number
_JSON_KINDS = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "int?": (lambda v: v is None or type(v) is int, "an integer or null"),
    "pair": (lambda v: type(v) is list and len(v) == 2 and all(type(n) is int for n in v),
             "two integers"),
    "ints": (lambda v: type(v) is list and all(type(n) is int for n in v), "a list of integers"),
    "strs": (lambda v: type(v) is list and all(type(n) is str for n in v), "a list of strings"),
    "range": (lambda v: type(v) is list and len(v) == 2 and all(type(n) in (int, float) for n in v),
              "two numbers"),
    "object": (lambda v: type(v) is dict, "an object"),
}


def _json_value(obj: dict, key: str, kind: str, where: str = "META"):
    """``obj[key]``, a DataError that names ``where`` and the key unless its
    JSON type is ``kind``'s; a "pair" is a SensorGeometry."""
    if key not in obj:
        raise DataError(f"{where} is missing {key!r}")
    value = obj[key]
    fits, expected = _JSON_KINDS[kind]
    if not fits(value):
        raise DataError(f"{where} {key!r} is {value!r}: expected {expected}")
    return SensorGeometry(*value) if kind == "pair" else value


# each section array as save_bundle writes it: (tag, name) -> (dtype, dimensions)
_ARRAYS = {
    ("DICT", "centroids"): ("float64", 2),
    ("TREE", "is_leaf"): ("bool", 1),
    ("TREE", "split_dim"): ("int32", 1),
    ("TREE", "split_val"): ("float64", 1),
    ("TREE", "left"): ("int32", 1),
    ("TREE", "right"): ("int32", 1),
    ("TREE", "leaf_index"): ("int32", 1),
    ("SVM_", "weights"): ("float64", 2),
    ("SVM_", "bias"): ("float64", 1),
    ("LAND", "landmarks"): ("int64", 2),
    ("PCA_", "mean"): ("float64", 1),
    ("PCA_", "components"): ("float64", 2),
    ("PCA_", "eigenvalues"): ("float64", 1),
    ("PACK", "words"): ("uint64", 1),
}


def _array(sections: dict[str, dict[str, np.ndarray]], tag: str, name: str) -> np.ndarray:
    """``sections[tag][name]``, a DataError unless it has the dtype and the
    number of dimensions of ``_ARRAYS`` and, for a float array, only finite
    values; the tree's split values are checked per node instead, since a
    leaf's is NaN."""
    array = sections[tag][name]
    dtype, ndim = _ARRAYS[tag, name]
    if array.dtype != dtype or array.ndim != ndim:
        raise DataError(f"{tag} {name!r} is a {array.ndim}-D {array.dtype} array: "
                        f"expected {ndim}-D {dtype}")
    if dtype == "float64" and name != "split_val" and not np.isfinite(array).all():
        raise DataError(f"{tag} {name!r} holds a value that is not finite")
    return array


def load_bundle(data: bytes) -> TrainedPipeline:
    meta, sections = bundle_mod.read_bundle(data)
    try:
        return _decode_bundle(meta, sections)
    except KeyError as exc:
        raise DataError(f"bundle: missing component {exc.args[0]!r}") from None
    except DataError as exc:
        raise DataError(f"bundle: {exc}") from None


def _decode_bundle(meta: dict, sections: dict[str, dict[str, np.ndarray]]) -> TrainedPipeline:
    if meta.get("kind") != "evrect-pipeline":
        raise DataError("not a pipeline bundle")
    c = _json_value(meta, "config", "object")
    config = _with_attrs(
        PipelineConfig(), {attr: _json_value(c, key, kind, "config") for key, attr, kind in _CONFIG_KEYS}
    )
    class_names = tuple(_json_value(meta, "class_names", "strs"))
    feature_space = _json_value(meta, "feature_space", "str")
    centroids = _array(sections, "DICT", "centroids")
    tree = KdTree(
        *(_array(sections, "TREE", name)
          for name in ("is_leaf", "split_dim", "split_val", "left", "right", "leaf_index")),
        dim=_json_value(meta, "tree_dim", "int"),
        n_points=len(centroids),
    )
    svm = SvmModel(
        weights=_array(sections, "SVM_", "weights"),
        bias=_array(sections, "SVM_", "bias"),
        class_names=class_names,
    )
    landmark_rows = _array(sections, "LAND", "landmarks")
    n_classes, k = len(class_names), len(centroids)
    n_landmarks = min(config.n_landmarks, k)
    if svm.weights.shape != (n_classes, k):
        raise DataError(f"SVM weights of shape {svm.weights.shape} for "
                        f"{n_classes} classes over {k} entries")
    if svm.bias.shape != (n_classes,):
        raise DataError(f"SVM bias of shape {svm.bias.shape} for {n_classes} classes")
    if landmark_rows.shape != (n_classes, n_landmarks):
        raise DataError(f"landmarks of shape {landmark_rows.shape} for "
                        f"{n_classes} classes of {n_landmarks}")
    if ((landmark_rows < 0) | (landmark_rows >= k)).any():
        raise DataError(f"a landmark id outside 0..{k - 1}")
    landmarks = {
        name: DetectorModel(landmarks=tuple(int(v) for v in landmark_rows[i]))
        for i, name in enumerate(class_names)
    }

    pca_model = None
    if "PCA_" in sections:
        pca_model = PcaModel(
            *(_array(sections, "PCA_", name) for name in ("mean", "components", "eigenvalues")),
            energy_kept=_json_value(meta, "pca_energy_kept", "float"),
        )
        # descriptors of d = patch_w**2 values project onto the tree's d' axes
        d, d_tree = config.rect_cfg.dim, tree.dim
        shapes = [a.shape for a in (pca_model.mean, pca_model.components, pca_model.eigenvalues)]
        if shapes != [(d,), (d_tree, d), (d_tree,)]:
            raise DataError(f"PCA mean, components and eigenvalues of shapes "
                            f"{', '.join(map(str, shapes))} for {d}-value descriptors "
                            f"and a tree over {d_tree} dimensions")
    # every walk must end inside the tree, so both trees are checked here,
    # before any descent reads them
    check_tree(tree)
    if not np.isfinite(tree.split_val[~tree.is_leaf]).all():
        raise DataError("a split value of the tree is not finite")
    vproj = None
    if meta.get("kept_dims") is not None:
        vproj = VirtualProjection(
            kept_dims=tuple(_json_value(meta, "kept_dims", "ints")),
            source_dim=_json_value(meta, "source_dim", "int"),
        )
        if len(vproj.kept_dims) != tree.dim:
            raise DataError(f"{len(vproj.kept_dims)} kept dimensions for a tree over {tree.dim}")
    # without PCA, the tree reads the descriptors' own columns
    d_read = tree.dim if vproj is None else vproj.source_dim
    if pca_model is None and d_read != config.rect_cfg.dim:
        raise DataError(f"a tree that reads {d_read}-value descriptors, not {config.rect_cfg.dim}")
    packed = qtree = None
    if "PACK" in sections:
        vmin, vmax = _json_value(meta, "packed_range", "range")
        packed = PackedTree(words=_array(sections, "PACK", "words"), vmin=vmin, vmax=vmax)
        qtree = unpack(packed, tree.dim)
        check_tree(qtree)
        if qtree.n_points != tree.n_points:
            raise DataError(f"packed tree has {qtree.n_points} leaves for {tree.n_points} entries")
        # the hardware profile descends the ROM alone, so it must be the
        # float tree's own packing
        repacked = pack(tree)
        if (not np.array_equal(packed.words, repacked.words)
                or [packed.vmin, packed.vmax] != [repacked.vmin, repacked.vmax]):
            raise DataError("packed tree is not the packing of the float tree")
    elif config.profile == "hardware":
        raise DataError("the hardware profile without a packed tree")
    return TrainedPipeline(
        config=config,
        class_names=class_names,
        dictionary=Dictionary(centroids=centroids, feature_space=feature_space),
        tree=tree,
        svm=svm,
        landmarks=landmarks,
        pca_model=pca_model,
        vproj=vproj,
        packed=packed,
        stream_model=_stream_model(svm, config),
        stats=dict(_json_value(meta, "stats", "object")),
        _qtree=qtree,
    )
