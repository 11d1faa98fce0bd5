"""Digit-dataset benchmark runner over 34x34 binary event recordings.

Expects the published directory layout: a root with Train/ and Test/
folders, each holding one subfolder per digit class full of .bin event
files.  Each file is one recording and receives one label, so
classification uses one whole-stream histogram per file (window size 0)
rather than fixed event windows.

Training is :func:`evrect.pipeline.train_filtered` over :class:`Recordings`,
which reads and filters the files lazily, one at a time, on each of its two
passes; only sampled descriptors and per-file histograms stay in memory.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DataError
from .events import NMNIST_GEOMETRY, EventStream, parse_nmnist_bin
from .filtering import FilterConfig, cascade
from .pipeline import PipelineConfig, run_classify, train_filtered


def discover(root: str | Path, split: str, limit_per_class: int | None = None) -> list[tuple[str, Path]]:
    """Sorted (label, path) pairs for one split directory."""
    base = Path(root) / split
    if not base.is_dir():
        raise DataError(f"dataset split directory not found: {base}")
    out: list[tuple[str, Path]] = []
    for class_dir in sorted(p for p in base.iterdir() if p.is_dir()):
        files = sorted(class_dir.glob("*.bin"))
        if limit_per_class is not None:
            files = files[:limit_per_class]
        out.extend((class_dir.name, f) for f in files)
    if not out:
        raise DataError(f"no .bin recordings under {base}")
    return out


def read_recording(path: Path) -> EventStream:
    """One recording, every pixel inside the sensor; a DataError names its
    file."""
    try:
        stream = parse_nmnist_bin(path.read_bytes())
        stream.check_coordinates()
        return stream
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


class Recordings:
    """(label, filtered stream) pairs of ``files``, each file read and
    filtered again on every pass."""

    def __init__(self, files: list[tuple[str, Path]], filter_cfg: FilterConfig) -> None:
        self.files = files
        self.filter_cfg = filter_cfg

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self):
        for label, path in self.files:
            yield label, cascade(read_recording(path), self.filter_cfg)


def run_benchmark(
    root: str | Path,
    k: int = 3000,
    energy: float = 0.95,
    seed: int = 0,
    sample_cap: int = 180_000,
    limit_train: int | None = None,
    limit_test: int | None = None,
    svm_lambda: float = 1e-4,
    svm_epochs: int = 200,
    log=None,
) -> dict:
    """Train on Train/, score on Test/, return accuracy and stage stats.

    limit_train / limit_test cap the number of files per class for
    shortened runs; None uses every file.  The training pipeline draws
    ``sample_cap // n`` descriptors from each of the n training files, and
    one more from each of the first ``sample_cap % n``.
    """
    say = log or (lambda msg: None)
    config = PipelineConfig(
        geometry=NMNIST_GEOMETRY, pca_mode="pca", pca_energy=energy, k=k, s_window=0, seed=seed,
        sample_cap=sample_cap, svm_lambda=svm_lambda, svm_epochs=svm_epochs,
    )
    train_files = discover(root, "Train", limit_train)
    test_files = discover(root, "Test", limit_test)
    say(f"{len(train_files)} training files, {len(test_files)} test files")
    tp = train_filtered(config, Recordings(train_files, config.filter_cfg), say)

    correct = 0
    scored = 0
    for label, path in test_files:
        windows = run_classify(tp, read_recording(path))
        if windows:  # a file the filter empties has no window and is not scored
            scored += 1
            correct += windows[0].label == label
    accuracy = correct / scored if scored else 0.0
    say(f"test accuracy {accuracy:.4f} over {scored} files")
    return {
        "accuracy": accuracy,
        "n_train": tp.stats["training_histograms"],
        "n_test": scored,
        "pca_dims": tp.stats["pca_dims_kept"],
        "dictionary_k": tp.stats["dictionary_k"],
        "tree_depth": tp.stats["tree_depth"],
    }
