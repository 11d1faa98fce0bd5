"""Streaming object recognition for event cameras.

The package turns raw address-event streams into per-window class labels
and coarse object positions.  Events pass a two-stage noise filter, feed
a fixed-capacity count matrix whose pooled patches act as descriptors,
and land in k-d tree leaves that form visual-word histograms for a set
of linear one-vs-all classifiers.  A quantized tree encoding and an
integer scoring path mirror a small-logic hardware deployment.
"""

from .bundle import read_bundle, write_bundle
from .classifier import StreamScorer, SvmModel, export_stream, train as train_svm
from .detector import (
    Box,
    DetectorModel,
    HeatMapTracker,
    TruthWindow,
    compute_stats,
    evaluate,
    precision_recall,
    select_landmarks,
)
from .dictionary import Dictionary, learn
from .errors import CapacityError, DataError, EvrectError, UsageError
from .events import (
    NMNIST_GEOMETRY,
    Event,
    EventStream,
    SensorGeometry,
    parse_csv,
    parse_nmnist_bin,
    write_csv,
)
from .filtering import CascadeFilter, FilterConfig, cascade
from .kdtree import (
    KdTree,
    PackedTree,
    build,
    descend,
    dump_rom,
    pack,
    parse_rom,
    quantized_descend,
    unpack,
)
from .pca import PcaModel, fit as fit_pca, project
from .pipeline import (
    PipelineConfig,
    TrainedPipeline,
    load_bundle,
    run_bench,
    run_classify,
    run_detect,
    save_bundle,
    train_pipeline,
)
from .rect import RectConfig, RectState
from .synth import SceneSpec, synth_scene

__version__ = "1.0.0"

__all__ = [
    "Box",
    "CapacityError",
    "CascadeFilter",
    "DataError",
    "DetectorModel",
    "Dictionary",
    "Event",
    "EventStream",
    "EvrectError",
    "FilterConfig",
    "HeatMapTracker",
    "KdTree",
    "NMNIST_GEOMETRY",
    "PackedTree",
    "PcaModel",
    "PipelineConfig",
    "RectConfig",
    "RectState",
    "SceneSpec",
    "SensorGeometry",
    "StreamScorer",
    "SvmModel",
    "TrainedPipeline",
    "TruthWindow",
    "UsageError",
    "build",
    "cascade",
    "compute_stats",
    "descend",
    "dump_rom",
    "evaluate",
    "export_stream",
    "fit_pca",
    "learn",
    "load_bundle",
    "pack",
    "parse_csv",
    "parse_nmnist_bin",
    "parse_rom",
    "precision_recall",
    "project",
    "quantized_descend",
    "run_bench",
    "run_classify",
    "run_detect",
    "save_bundle",
    "select_landmarks",
    "synth_scene",
    "train_pipeline",
    "train_svm",
    "unpack",
    "write_bundle",
    "write_csv",
]
