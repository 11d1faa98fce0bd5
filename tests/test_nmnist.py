"""Tests for the digit-dataset directory walker and benchmark runner,
using small fabricated binary recordings."""

from collections import Counter

import numpy as np
import pytest

import evrect.nmnist
from evrect.errors import DataError
from evrect.events import NMNIST_GEOMETRY
from evrect.nmnist import Recordings, discover, read_recording, run_benchmark
from evrect.pipeline import PipelineConfig, save_bundle, train_filtered, train_pipeline


def encode_records(events):
    """Pack (x, y, t, p) tuples into the 5-byte recording format."""
    out = bytearray()
    for x, y, t, p in events:
        out.append(x)
        out.append(y)
        out.append(((p & 1) << 7) | ((t >> 16) & 0x7F))
        out.append((t >> 8) & 0xFF)
        out.append(t & 0xFF)
    return bytes(out)


def line_recording(rng, orientation, n=400):
    """Events jittered along a line; dense in time so the noise filter
    keeps them (each pixel's neighbors fire again within the window)."""
    events = []
    t = 0
    for _ in range(n):
        t += int(rng.integers(50, 400))
        pos = int(rng.integers(5, 29))
        jitter = int(rng.integers(-1, 2))
        if orientation == "h":
            x, y = pos, 17 + jitter
        else:
            x, y = 17 + jitter, pos
        events.append((x, y, t, int(rng.integers(0, 2))))
    return encode_records(events)


@pytest.fixture()
def dataset_root(tmp_path):
    rng = np.random.default_rng(100)
    for split, per_class in (("Train", 3), ("Test", 2)):
        for label, orientation in (("3", "h"), ("7", "v")):
            d = tmp_path / split / label
            d.mkdir(parents=True)
            for i in range(per_class):
                (d / f"{i:05d}.bin").write_bytes(line_recording(rng, orientation))
    return tmp_path


def test_discover_sorted_pairs(dataset_root):
    got = discover(dataset_root, "Train")
    assert [label for label, _ in got] == ["3", "3", "3", "7", "7", "7"]
    paths = [p for _, p in got]
    assert paths == sorted(paths)


def test_discover_limit_per_class(dataset_root):
    got = discover(dataset_root, "Test", limit_per_class=1)
    assert [label for label, _ in got] == ["3", "7"]


def test_discover_missing_split(tmp_path):
    with pytest.raises(DataError, match="split directory not found"):
        discover(tmp_path, "Train")


def test_discover_empty_split(tmp_path):
    (tmp_path / "Train" / "0").mkdir(parents=True)
    with pytest.raises(DataError, match="no .bin recordings"):
        discover(tmp_path, "Train")


def test_benchmark_separates_line_orientations(dataset_root):
    messages = []
    result = run_benchmark(
        dataset_root,
        k=8,
        energy=0.95,
        seed=0,
        sample_cap=2000,
        svm_epochs=30,
        log=messages.append,
    )
    assert result["n_train"] == 6
    assert result["n_test"] == 4
    assert result["dictionary_k"] == 8
    assert result["pca_dims"] >= 1
    assert result["tree_depth"] >= 1
    assert result["accuracy"] >= 0.75
    assert any("test accuracy" in m for m in messages)


def test_lazy_recordings_train_the_in_memory_bundle(dataset_root):
    """Files read again on each of training's two passes give the bundle
    that the same recordings give as a list."""
    config = PipelineConfig(geometry=NMNIST_GEOMETRY, pca_mode="pca", k=8, s_window=0,
                            sample_cap=1998, svm_epochs=30)
    files = discover(dataset_root, "Train")
    lazy = train_filtered(config, Recordings(files, config.filter_cfg))
    in_memory = train_pipeline(config, [(label, read_recording(path)) for label, path in files])
    assert save_bundle(lazy) == save_bundle(in_memory)


def test_benchmark_reads_training_files_twice_and_test_files_once(dataset_root, monkeypatch):
    reads = Counter()
    parse = evrect.nmnist.parse_nmnist_bin

    def counted(data):
        reads[data] += 1
        return parse(data)

    monkeypatch.setattr(evrect.nmnist, "parse_nmnist_bin", counted)
    run_benchmark(dataset_root, k=8, sample_cap=1998, svm_epochs=5)
    expected = Counter()
    for split, times in (("Train", 2), ("Test", 1)):
        for _, path in discover(dataset_root, split):
            expected[path.read_bytes()] += times
    assert reads == expected


@pytest.mark.parametrize("split", ["Train", "Test"])
@pytest.mark.parametrize(
    "edit, message",
    [(lambda data: data[:-2], "truncated record"),
     (lambda data: bytes([40]) + data[1:], r"coordinate \(40,\d+\) outside 34x34 sensor")],
    ids=["truncated", "pixel outside"],
)
def test_bad_recording_names_its_file(dataset_root, split, edit, message):
    bad = dataset_root / split / "7" / "00000.bin"
    bad.write_bytes(edit(bad.read_bytes()))
    with pytest.raises(DataError, match=message) as info:
        run_benchmark(dataset_root, k=8, sample_cap=1998, svm_epochs=5)
    assert str(bad) in str(info.value)
