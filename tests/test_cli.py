"""Tests for the command-line interface (run in-process via main)."""

import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evrect.bundle import read_bundle
from evrect.cli import main, parse_kv, pipeline_config_from_kv, scene_spec_from_kv
from evrect.errors import UsageError
from evrect.events import SensorGeometry, parse_csv
from evrect.filtering import FilterConfig, cascade
from evrect.kdtree import parse_rom
from evrect.pipeline import _CONFIG_KEYS, PCA_MODES, PROFILES, PipelineConfig
from evrect.synth import SceneSpec


TRAIN_CONFIG = """
# tiny pipeline for test runs
fifo_capacity = 400
pool_p = 3
pool_q = 3
patch_w = 5
dictionary_k = 8
window_s = 400
landmarks_d = 4
sample_cap = 2000
svm_epochs = 10
seed = 0
"""


def run_cli(*argv):
    return main(list(argv))


def write_scene(path, shape, seed, duration_us=200_000, noise_rate=2000.0, **kw):
    args = [
        "synth",
        "--output", str(path),
        "--shape", shape,
        "--seed", str(seed),
        "--duration-us", str(duration_us),
        "--noise-rate", str(noise_rate),
    ]
    for flag, value in kw.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    assert run_cli(*args) == 0


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def float_bundle(cli_dir):
    bar = cli_dir / "bar.csv"
    ring = cli_dir / "ring.csv"
    write_scene(bar, "bar", seed=1, vx=20)
    write_scene(ring, "ring", seed=2, vy=15)
    config = cli_dir / "train.cfg"
    config.write_text(TRAIN_CONFIG)
    bundle = cli_dir / "float.evrb"
    code = run_cli(
        "train", f"bar={bar}", f"ring={ring}",
        "--config", str(config), "--output", str(bundle),
    )
    assert code == 0
    return bundle


@pytest.fixture(scope="module")
def probe_csv(cli_dir):
    path = cli_dir / "probe.csv"
    write_scene(path, "ring", seed=3, duration_us=100_000)
    return path


@pytest.fixture(scope="module")
def hw_bundle(cli_dir, float_bundle):
    config = cli_dir / "train.cfg"
    bundle = cli_dir / "hw.evrb"
    code = run_cli(
        "train", f"bar={cli_dir / 'bar.csv'}", f"ring={cli_dir / 'ring.csv'}",
        "--config", str(config), "--output", str(bundle), "--profile", "hardware",
    )
    assert code == 0
    return bundle


@pytest.fixture(scope="module")
def pca_bundle(cli_dir, float_bundle):
    config = cli_dir / "pca.cfg"
    config.write_text(TRAIN_CONFIG + "pca_mode = pca\n")
    bundle = cli_dir / "pca.evrb"
    code = run_cli(
        "train", f"bar={cli_dir / 'bar.csv'}", f"ring={cli_dir / 'ring.csv'}",
        "--config", str(config), "--output", str(bundle),
    )
    assert code == 0
    return bundle


def test_synth_same_seed_byte_identical(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    ta, tb = tmp_path / "a_truth.csv", tmp_path / "b_truth.csv"
    write_scene(a, "ring", seed=5, truth=ta)
    write_scene(b, "ring", seed=5, truth=tb)
    write_scene(c, "ring", seed=6)
    assert a.read_bytes() == b.read_bytes()
    assert ta.read_bytes() == tb.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_synth_spec_file_with_flag_override(tmp_path, capsys):
    spec = tmp_path / "scene.cfg"
    spec.write_text("shape = cross\nduration_us = 50000\nnoise_rate = 1000\n")
    out = tmp_path / "scene.csv"
    assert run_cli("synth", "--spec", str(spec), "--output", str(out), "--shape", "ring") == 0
    assert "wrote" in capsys.readouterr().out
    assert parse_csv(out.read_bytes(), SensorGeometry()) is not None


def test_synth_out_of_bounds_scene_fails(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = run_cli(
        "synth", "--output", str(out), "--start-x", "2", "--vx", "-500",
        "--duration-us", "100000",
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_filter_round_trip(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_scene(raw, "ring", seed=3, duration_us=100_000, noise_rate=5000)
    capsys.readouterr()
    out = tmp_path / "kept.csv"
    assert run_cli("filter", "--input", str(raw), "--output", str(out)) == 0
    geometry = SensorGeometry()
    stream = parse_csv(raw.read_bytes(), geometry)
    expect = cascade(stream, FilterConfig())
    got = parse_csv(out.read_bytes(), geometry)
    assert len(got) == len(expect)
    assert np.array_equal(got.t, expect.t)
    assert np.array_equal(got.x, expect.x)
    assert capsys.readouterr().out.strip() == f"kept {len(expect)} of {len(stream)} events"


def test_non_utf8_csv_is_data_error(cli_dir, float_bundle, tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"1,2,3,0\n4,5,6,1\n7,8,9,\xff\n")
    runs = {
        "filter": ("filter", "--input", str(bad), "--output", str(tmp_path / "out.csv")),
        "classify": ("classify", "--bundle", str(float_bundle), "--input", str(bad)),
    }
    for name, argv in runs.items():
        assert run_cli(*argv) == 2, name
        err = capsys.readouterr().err
        assert err == "error: line 3: byte 0xff is not UTF-8 text\n", (name, err)


# (command, the flag that names the text file, contents, the error after the path)
TEXT_INPUTS = {
    "train --config": (b"\xff\xfe=1\n", "line 1: byte 0xff is not UTF-8 text"),
    "train --manifest": (b"\xff\xfe=1\n", "line 1: byte 0xff is not UTF-8 text"),
    "synth --spec": (b"# scene\n\xff\xfe=1\n", "line 2: byte 0xff is not UTF-8 text"),
    "detect --truth": (b"\xff\xfe=1\n", "line 1: byte 0xff is not UTF-8 text"),
    "detect --truth fields": (b"0,10,1,1,5,5\na,b,c,d,e,f\n", "truth line 2: expected 6 integers"),
}


@pytest.mark.parametrize("case", sorted(TEXT_INPUTS))
def test_unreadable_text_input_is_data_error(case, cli_dir, float_bundle, tmp_path, capsys):
    data, message = TEXT_INPUTS[case]
    bad = tmp_path / "input.txt"
    bad.write_bytes(data)
    out = str(tmp_path / "out")
    scene = str(cli_dir / "bar.csv")
    argv = {
        "train": ("train", f"bar={scene}", "--output", out),
        "synth": ("synth", "--output", out),
        "detect": ("detect", "--bundle", str(float_bundle), "--input", scene, "--output", out),
    }[case.split()[0]]
    assert run_cli(*argv, case.split()[1], str(bad)) == 2
    prefix = "" if case == "detect --truth fields" else f"{bad}: "
    assert capsys.readouterr().err == f"error: {prefix}{message}\n"


def test_classify_outputs_are_reproducible(cli_dir, float_bundle):
    probe = cli_dir / "probe.csv"
    write_scene(probe, "ring", seed=9, vy=15)
    out1 = cli_dir / "out1.csv"
    out2 = cli_dir / "out2.csv"
    assert run_cli("classify", "--bundle", str(float_bundle), "--input", str(probe), "--output", str(out1)) == 0
    assert run_cli("classify", "--bundle", str(float_bundle), "--input", str(probe), "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "window_end_timestamp,label,score_bar,score_ring"
    assert len(lines) >= 2
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] in ("bar", "ring")
        float(fields[2]), float(fields[3])


def test_vpca_bundle_records_projection_not_basis(float_bundle):
    meta, sections = read_bundle(float_bundle.read_bytes())
    assert meta["kind"] == "evrect-pipeline"
    assert meta["config"]["pca_mode"] == "vpca"
    assert meta["kept_dims"] is not None and len(meta["kept_dims"]) >= 1
    assert "PCA_" not in sections
    assert set(sections) >= {"DICT", "TREE", "SVM_", "LAND"}


def test_detect_with_truth_summary(cli_dir, float_bundle, capsys):
    probe = cli_dir / "dprobe.csv"
    truth = cli_dir / "dprobe_truth.csv"
    write_scene(probe, "ring", seed=11, vy=15, truth=truth)
    capsys.readouterr()
    out = cli_dir / "detect.csv"
    code = run_cli(
        "detect", "--bundle", str(float_bundle), "--input", str(probe),
        "--target", "ring", "--output", str(out), "--truth", str(truth),
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "precision" in summary and "recall" in summary
    lines = out.read_text().splitlines()
    assert lines[0] == "window_end_timestamp,x,y,threshold,landmark_hits"
    assert len(lines) >= 2


def test_detect_unknown_target_is_data_error(cli_dir, float_bundle, capsys):
    probe = cli_dir / "probe.csv"
    code = run_cli("detect", "--bundle", str(float_bundle), "--input", str(probe), "--target", "square")
    assert code == 2
    assert "unknown target" in capsys.readouterr().err


def test_dump_heat_writes_window_images(cli_dir, float_bundle, tmp_path):
    probe = cli_dir / "probe.csv"
    heat = tmp_path / "heat"
    out = tmp_path / "cls.csv"
    code = run_cli(
        "classify", "--bundle", str(float_bundle), "--input", str(probe),
        "--output", str(out), "--dump-heat", str(heat),
    )
    assert code == 0
    counts = sorted(heat.glob("window_*_counts.pgm"))
    pooled = sorted(heat.glob("window_*_pooled.pgm"))
    assert len(counts) == len(pooled) >= 1
    assert counts[0].read_text().startswith("P2\n240 180\n255\n")


def test_bench_empty_input(tmp_path, float_bundle, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_cli("bench", "--bundle", str(float_bundle), "--input", str(empty)) == 0
    out = capsys.readouterr().out
    assert "events processed : 0" in out


def test_bench_reports_throughput(cli_dir, float_bundle, capsys):
    probe = cli_dir / "probe.csv"
    assert run_cli("bench", "--bundle", str(float_bundle), "--input", str(probe)) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "stage descend" in out
    stages = [line.split()[1] for line in out.splitlines() if line.startswith("stage ")]
    assert stages[0] == "parse"


def _model_mutants(blob):
    """Edits to a 2-class hardware bundle's model arrays, as (bundle, the
    commands that used to fail on it): a short weight matrix and an
    out-of-range landmark ended in a traceback, a 1-element bias (broadcast
    over both classes) gave wrong scores, and a changed split code in the
    ROM made the hardware profile silently descend another tree.  A huge but
    finite SVM weight overflowed the fixed-point scores."""
    from evrect.bundle import write_bundle

    def edited(section, key, edit):
        meta, sections = read_bundle(blob)
        sections[section][key] = np.ascontiguousarray(edit(sections[section][key].copy()))
        return write_bundle(meta, sections)

    def set_at(index, value):
        def edit(array):
            array[index] = value
            return array
        return edit

    words = read_bundle(blob)[1]["PACK"]["words"]
    inner = int(np.flatnonzero((words >> np.uint64(48)) == 0)[0])
    recoded = words[inner] ^ np.uint64(1 << 4)  # lowest bit of the 8-bit split code
    classify = [("classify",)]
    return {
        "weights short by 3 columns": (edited("SVM_", "weights", lambda w: w[:, :-3]), classify),
        "1-element bias": (edited("SVM_", "bias", lambda b: b[:1]), classify),
        "landmark id 10**6": (edited("LAND", "landmarks", set_at((0, 0), 10**6)),
                              [("detect", "--target", "bar")]),
        "PACK split code": (edited("PACK", "words", set_at(inner, recoded)),
                            [("classify", "--profile", p) for p in ("float", "hardware")]),
        # the fixed-point cast gave int64 min with only a RuntimeWarning
        "SVM weight 1e300": (edited("SVM_", "weights", set_at((0, 0), 1e300)), classify),
        # each fixed-point weight fits int64, but a full window's sum wrapped
        "SVM weight 3e12": (edited("SVM_", "weights", set_at((0, 0), 3e12)), classify),
    }


def _tree_mutants(blob):
    """Bundles whose float or packed tree has a child that no walk can take."""
    from evrect.bundle import write_bundle

    _, sections = read_bundle(blob)
    inner = int(np.flatnonzero(~sections["TREE"]["is_leaf"].astype(bool))[1])
    root_word = sections["PACK"]["words"][0] | np.uint64(0xFFF << 36)
    edits = {
        "tree child 999": ("TREE", "left", 0, 999),
        "tree child is the root": ("TREE", "left", inner, 0),
        "packed root left 4095": ("PACK", "words", 0, root_word),
    }
    out = {}
    for name, (section, key, i, value) in edits.items():
        meta, sections = read_bundle(blob)
        array = sections[section][key] = sections[section][key].copy()
        array[i] = value
        out[name] = write_bundle(meta, sections)
    return out


def _pca_mutants(blob):
    """Edits to a `pca_mode = pca` bundle's PCA section whose shapes no
    longer fit the descriptors or the tree; a short `components` ended in a
    matmul traceback."""
    from evrect.bundle import write_bundle

    def edited(key, edit):
        meta, sections = read_bundle(blob)
        sections["PCA_"][key] = np.ascontiguousarray(edit(sections["PCA_"][key]))
        return write_bundle(meta, sections)

    meta, sections = read_bundle(blob)
    del sections["PCA_"]["mean"]
    return {
        "components short one column": edited("components", lambda c: c[:, :-1]),
        "components short one row": edited("components", lambda c: c[:-1]),
        "mean short one value": edited("mean", lambda m: m[:-1]),
        "eigenvalues short one value": edited("eigenvalues", lambda e: e[:-1]),
        "no mean": write_bundle(meta, sections),
    }


# config values of the wrong JSON type or size: the first four ended in a
# traceback with exit 1, the next seven ran with exit 0 on a model other than
# the one trained, and the last exited 2 from the descent, with no "bundle:"
CONFIG_MUTANTS = [
    ("fifo_capacity", 400.5),
    ("geometry", [180.0, 240]),
    ("window_s", 400.5),
    ("geometry", [10**9, 10**9]),
    ("theta_noise_us", True),
    ("normalize", "no"),
    ("seed", 1.5),
    ("pca_dims", 3.0),
    ("frac_bits", 1000.0),
    ("svm_lambda", "x"),
    ("geometry", [180, 240, 1]),
    ("patch_w", 5.0),
]


def _meta_mutants(float_blob, hw_blob, pca_blob):
    """META values missing or of the wrong JSON type, each of which ended in
    a traceback with exit 1, and CONFIG_MUTANTS."""
    from evrect.bundle import write_bundle

    def edited(blob, edit):
        meta, sections = read_bundle(blob)
        edit(meta)
        return write_bundle(meta, sections)

    mutants = {
        "pca_energy_kept null": edited(pca_blob, lambda m: m.update(pca_energy_kept=None)),
        "tree_dim x": edited(float_blob, lambda m: m.update(tree_dim="x")),
        "fifo_capacity x": edited(float_blob, lambda m: m["config"].update(fifo_capacity="x")),
        "kept_dims a": edited(float_blob, lambda m: m.update(kept_dims=["a"])),
        "3-item packed_range": edited(hw_blob, lambda m: m.update(packed_range=[0.0, 0.5, 1.0])),
        "stats ab": edited(float_blob, lambda m: m.update(stats="ab")),
        "no feature_space": edited(float_blob, lambda m: m.pop("feature_space")),
    }
    for key, value in CONFIG_MUTANTS:
        mutants[f"{key} {value!r}"] = edited(
            float_blob, lambda m, key=key, value=value: m["config"].update({key: value}))
    return mutants


def test_malformed_bundle_is_data_error(float_bundle, hw_bundle, pca_bundle, tmp_path, capsys):
    from evrect.bundle import write_bundle

    probe = tmp_path / "probe.csv"
    write_scene(probe, "ring", seed=3, duration_us=100_000)
    blob = float_bundle.read_bytes()
    meta, sections = read_bundle(blob)
    del meta["class_names"]
    no_class_names = write_bundle(meta, sections)
    meta, sections = read_bundle(blob)
    del meta["config"]["window_s"]
    mutants = {
        "tag": blob[:8] + b"\xffETA" + blob[12:],  # META tag made non-ASCII
        "utf8": blob[:20] + b"\xff" + blob[21:],  # first META payload byte
        "json": blob[:20] + b"#" + blob[21:],
        "config": write_bundle(meta, sections),
        "class_names": no_class_names,
        "list": write_bundle(["evrect-pipeline"], sections),  # META not a JSON object
    }
    commands = {name: [("classify",)] for name in mutants}
    for name, (data, runs) in _model_mutants(hw_bundle.read_bytes()).items():
        mutants[name] = data
        commands[name] = runs
    for name, data in _pca_mutants(pca_bundle.read_bytes()).items():
        mutants[name] = data
        commands[name] = [("classify",)]
    for name, data in _meta_mutants(blob, hw_bundle.read_bytes(), pca_bundle.read_bytes()).items():
        mutants[name] = data
        commands[name] = [("classify",)]
    for name, data in mutants.items():
        bad = tmp_path / f"{name}.evrb"
        bad.write_bytes(data)
        for command in commands[name]:
            code = run_cli(command[0], "--bundle", str(bad), "--input", str(probe), *command[1:])
            err = capsys.readouterr().err
            assert code == 2, (name, command)
            assert err.startswith("error: bundle:"), (name, command, err)
    # each in its own process: a walk that never ends must fail the test,
    # not hang it
    for name, data in _tree_mutants(hw_bundle.read_bytes()).items():
        bad = tmp_path / f"{name}.evrb"
        bad.write_bytes(data)
        for command in ("classify", "detect"):
            for profile in ("float", "hardware"):
                proc = subprocess.run(
                    [sys.executable, "-m", "evrect.cli", command, "--bundle", str(bad),
                     "--input", str(probe), "--profile", profile],
                    capture_output=True, text=True, timeout=60,
                )
                case = (name, command, profile, proc.stderr)
                assert proc.returncode == 2, case
                assert proc.stderr.startswith("error: bundle:"), case
                assert "Traceback" not in proc.stderr, case


# Classifies each bundle path after the first argument (the probe CSV) in this
# one process, as `evrect classify` would, and prints [exit code, stderr] per
# bundle as a JSON line; an exception that escapes main prints its traceback.
_CLASSIFY_EACH = """
import contextlib, io, json, os, sys, traceback
from evrect.cli import main
for bundle in sys.argv[2:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(["classify", "--bundle", bundle, "--input", sys.argv[1], "--output", os.devnull])
        except Exception:
            traceback.print_exc()
            code = 1
    print(json.dumps([code, err.getvalue()]))
"""

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**62), st.floats(),
    st.text(max_size=6), st.sampled_from(PCA_MODES + PROFILES),
)
# a geometry item is of another JSON type, fails the bundle's own checks, or
# holds the probe's pixels: a decoded geometry never fails the probe's parse
_GEOMETRY_ITEMS = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.integers(max_value=0), st.integers(min_value=2**24 + 1), st.integers(240, 600),
)


@st.composite
def _config_cases(draw):
    """One (bundle, key, JSON value) case for each config key; half the
    values are small integers, where most keys' valid ranges lie."""
    cases = []
    for key, _, _ in _CONFIG_KEYS:
        items = _GEOMETRY_ITEMS if key == "geometry" else _JSON_SCALARS
        values = st.one_of(_JSON_SCALARS, st.lists(items, max_size=3))
        if draw(st.booleans()):
            values = st.integers(-2, 64)
        cases.append((draw(st.sampled_from(["float", "hw"])), key, draw(values)))
    return cases


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases=_config_cases())
def test_bundle_config_fuzz(float_bundle, hw_bundle, probe_csv, cases):
    """A JSON value of any type in one key of META's config, for each key:
    exit 0, or exit 2 that blames the bundle, and never a traceback.  The
    cases run in a child process, so that a hang fails the test instead of
    stalling it."""
    from evrect.bundle import write_bundle

    blobs = {"float": float_bundle.read_bytes(), "hw": hw_bundle.read_bytes()}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (name, key, value) in enumerate(cases):
            meta, sections = read_bundle(blobs[name])
            meta["config"][key] = value
            paths.append(Path(tmp) / f"{i}.evrb")
            paths[-1].write_bytes(write_bundle(meta, sections))
        proc = subprocess.run([sys.executable, "-c", _CLASSIFY_EACH, str(probe_csv), *map(str, paths)],
                              capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(cases)
    for case, (code, err) in zip(cases, results):
        assert "Traceback" not in err, (case, err)
        assert code == 0 or (code == 2 and err.startswith("error: bundle:")), (case, code, err)


_ARRAY_EDITS = st.one_of(
    st.tuples(st.just("dtype"), st.sampled_from(["float64", "float32", "int64", "int32", "uint64", "bool"]),
              st.just(0)),
    st.tuples(st.just("shape"), st.sampled_from(["short", "long", "flat", "wide", "scalar", "empty"]),
              st.just(0)),
    st.tuples(st.just("value"), st.sampled_from([float("nan"), float("inf"), float("-inf")]),
              st.integers(0, 2**16)),
    # a child, leaf or landmark id: just inside or outside a k = 8 model's
    # ranges, or past what a packed field or int32 holds
    st.tuples(st.just("id"), st.one_of(st.integers(-2, 20), st.sampled_from([4095, 2**31 - 1, 2**40])),
              st.integers(0, 2**16)),
)


def _edited_array(array, op, arg, at):
    """``array`` with one edit: its dtype swapped, its shape changed, one
    value made NaN or infinite (a float array in place of an integer one),
    or one id set to ``arg``: in a PACK word, its left, right or leaf field."""
    a = array.copy()
    if op == "dtype":
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return a.astype(arg)
    if op == "shape":
        return {"short": lambda: a[:-1], "long": lambda: np.concatenate([a, a[:1]]),
                "flat": a.ravel, "wide": lambda: a[..., None],
                "scalar": lambda: a.reshape(-1)[:1].reshape(()), "empty": lambda: a[:0]}[arg]()
    if op == "value" and a.dtype.kind != "f":
        a = a.astype(np.float64)
    flat = a.reshape(-1)
    i = at % flat.size
    if op == "value":
        flat[i] = arg
    elif a.dtype == np.uint64:
        shift = (12, 24, 36)[at % 3]
        flat[i] = (flat[i] & ~np.uint64(0xFFF << shift)) | np.uint64((arg % 4096) << shift)
    else:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            flat[i] = np.asarray(arg).astype(a.dtype)
    return a


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases=st.lists(st.tuples(st.sampled_from(["float", "hw", "pca"]), st.integers(0, 63), _ARRAY_EDITS),
                      min_size=12, max_size=12))
def test_bundle_section_array_fuzz(float_bundle, hw_bundle, pca_bundle, probe_csv, cases):
    """One edit to one array of a bundle's model sections: exit 0, or exit 2
    that blames the bundle, and never a traceback.  A 0-d array, a 2-D tree
    array, float ROM words and a NaN landmark each ended in a traceback."""
    from evrect.bundle import write_bundle

    blobs = {"float": float_bundle, "hw": hw_bundle, "pca": pca_bundle}
    blobs = {name: path.read_bytes() for name, path in blobs.items()}
    with tempfile.TemporaryDirectory() as tmp:
        paths, edits = [], []
        for i, (name, which, (op, arg, at)) in enumerate(cases):
            meta, sections = read_bundle(blobs[name])
            arrays = sorted((t, k) for t in sections for k in sections[t])
            tag, key = arrays[which % len(arrays)]
            sections[tag][key] = _edited_array(sections[tag][key], op, arg, at)
            edits.append((name, tag, key, op, arg))
            paths.append(Path(tmp) / f"{i}.evrb")
            paths[-1].write_bytes(write_bundle(meta, sections))
        proc = subprocess.run([sys.executable, "-c", _CLASSIFY_EACH, str(probe_csv), *map(str, paths)],
                              capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(cases)
    for edit, (code, err) in zip(edits, results):
        assert "Traceback" not in err, (edit, err)
        assert code == 0 or (code == 2 and err.startswith("error: bundle:")), (edit, code, err)


@pytest.mark.parametrize("command", ["train", "filter", "classify"])
def test_sensor_geometry_is_bounded(command, cli_dir, float_bundle, tmp_path, capsys):
    """A 10^9 x 10^9 sensor ended in a MemoryError traceback from each entry
    point that sets the geometry."""
    from evrect.bundle import write_bundle

    side = "1000000000"
    recording = cli_dir / "bar.csv"
    out = str(tmp_path / "out")
    if command == "train":
        config = tmp_path / "huge.cfg"
        config.write_text(f"{TRAIN_CONFIG}rows = {side}\ncols = {side}\n")
        argv = ["train", f"bar={recording}", "--config", str(config), "--output", out]
    elif command == "filter":
        argv = ["filter", "--input", str(recording), "--output", out, "--rows", side, "--cols", side]
    else:
        meta, sections = read_bundle(float_bundle.read_bytes())
        meta["config"]["geometry"] = [int(side), int(side)]
        bundle = tmp_path / "huge.evrb"
        bundle.write_bytes(write_bundle(meta, sections))
        argv = ["classify", "--bundle", str(bundle), "--input", str(recording)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"sensor geometry {side}x{side} exceeds" in err
    assert err.startswith("error: bundle:") == (command == "classify")


def test_tree_dump_round_trips(cli_dir, hw_bundle, tmp_path):
    rom = tmp_path / "tree.hex"
    assert run_cli("tree", "dump", "--bundle", str(hw_bundle), "--output", str(rom)) == 0
    text = rom.read_text()
    for line in text.splitlines():
        assert len(line) == 13
    meta, sections = read_bundle(hw_bundle.read_bytes())
    words = parse_rom(text, vmin=meta["packed_range"][0], vmax=meta["packed_range"][1]).words
    assert np.array_equal(words, sections["PACK"]["words"])


def test_tree_dump_without_packed_tree(cli_dir, tmp_path, capsys):
    # a float bundle whose tree failed to pack reports a data error; build
    # one by stripping the PACK section from a real bundle
    import evrect.pipeline as pl

    src = cli_dir / "float.evrb"
    meta, sections = read_bundle(src.read_bytes())
    meta["packed_range"] = None
    sections.pop("PACK", None)
    from evrect.bundle import write_bundle

    naked = tmp_path / "naked.evrb"
    naked.write_bytes(write_bundle(meta, sections))
    assert pl.load_bundle(naked.read_bytes()).packed is None
    code = run_cli("tree", "dump", "--bundle", str(naked))
    assert code == 2
    assert "no packed tree" in capsys.readouterr().err


def test_bundle_text_export(cli_dir, float_bundle, capsys):
    assert run_cli("bundle", "text", "--bundle", str(float_bundle)) == 0
    out = capsys.readouterr().out
    assert out.startswith("bundle version 1")
    assert "DICT/centroids" in out


def test_hardware_classify_agrees_with_itself(cli_dir, hw_bundle, tmp_path):
    probe = cli_dir / "probe.csv"
    out1 = tmp_path / "hw1.csv"
    out2 = tmp_path / "hw2.csv"
    assert run_cli("classify", "--bundle", str(hw_bundle), "--input", str(probe), "--output", str(out1)) == 0
    assert run_cli("classify", "--bundle", str(hw_bundle), "--input", str(probe), "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    for line in out1.read_text().splitlines()[1:]:
        fields = line.split(",")
        int(fields[2]), int(fields[3])


def test_train_same_seed_reproduces_bundle(cli_dir, tmp_path, capsys):
    config = cli_dir / "train.cfg"
    args = ["train", f"bar={cli_dir / 'bar.csv'}", f"ring={cli_dir / 'ring.csv'}",
            "--config", str(config)]
    out1 = tmp_path / "r1.evrb"
    out2 = tmp_path / "r2.evrb"
    assert run_cli(*args, "--output", str(out1)) == 0
    log1 = capsys.readouterr().out
    assert run_cli(*args, "--output", str(out2)) == 0
    log2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    acc1 = [l for l in log1.splitlines() if "training accuracy" in l]
    acc2 = [l for l in log2.splitlines() if "training accuracy" in l]
    assert acc1 and acc1 == acc2


def test_kmeans_error_is_data_exit(cli_dir, float_bundle, tmp_path, monkeypatch, capsys):
    import evrect.pipeline as pl
    from evrect.errors import EvrectError

    def fail(*args, **kwargs):
        raise EvrectError("k-means inertia increased")

    monkeypatch.setattr(pl, "learn", fail)
    code = run_cli(
        "train", f"bar={cli_dir / 'bar.csv'}", f"ring={cli_dir / 'ring.csv'}",
        "--config", str(cli_dir / "train.cfg"), "--output", str(tmp_path / "m.evrb"),
    )
    assert code == 2
    assert "error: k-means inertia increased" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("dictionary_k = 8\nbananas = 4\n")
    code = run_cli("train", "a=b.csv", "--config", str(config), "--output", str(tmp_path / "x"))
    assert code == 1
    assert "unknown config keys: bananas" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = run_cli("filter", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_event_csv_is_data_error(tmp_path, float_bundle, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    code = run_cli("classify", "--bundle", str(float_bundle), "--input", str(bad))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_train_requires_inputs(tmp_path, capsys):
    code = run_cli("train", "--output", str(tmp_path / "x"))
    assert code == 1
    assert "no training inputs" in capsys.readouterr().err


def test_train_rejects_bad_label_syntax(tmp_path, capsys):
    code = run_cli("train", "justapath.csv", "--output", str(tmp_path / "x"))
    assert code == 1
    assert "expected label=path" in capsys.readouterr().err


def test_train_manifest_inputs(cli_dir, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"# training corpus\nbar,{cli_dir / 'bar.csv'}\nring,{cli_dir / 'ring.csv'}\n"
    )
    config = cli_dir / "train.cfg"
    bundle = tmp_path / "m.evrb"
    code = run_cli(
        "train", "--manifest", str(manifest), "--config", str(config),
        "--output", str(bundle),
    )
    assert code == 0
    assert bundle.exists()
    meta, _ = read_bundle(bundle.read_bytes())
    assert meta["class_names"] == ["bar", "ring"]


def test_train_manifest_bad_line(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("no-comma-here\n")
    code = run_cli("train", "--manifest", str(manifest), "--output", str(tmp_path / "x"))
    assert code == 1
    assert "expected label,path" in capsys.readouterr().err


def test_train_reports_bad_csv_with_path(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,valid,event,line\n")
    code = run_cli("train", f"a={bad}", f"b={bad}", "--output", str(tmp_path / "x"))
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_usage_error_on_unknown_flag(capsys):
    assert run_cli("filter", "--nope") == 1
    assert run_cli("nosuchcommand") == 1


def test_parse_kv_rules():
    kv = parse_kv("# comment\n\na = 1\nb = two words\n")
    assert kv == {"a": "1", "b": "two words"}
    with pytest.raises(UsageError, match="line 2"):
        parse_kv("a = 1\nbroken line\n")


def test_config_coercion_errors():
    with pytest.raises(UsageError, match="expected a boolean"):
        pipeline_config_from_kv({"normalize": "maybe"})
    with pytest.raises(UsageError, match="cannot parse"):
        pipeline_config_from_kv({"dictionary_k": "many"})
    with pytest.raises(UsageError, match="unknown scene keys"):
        scene_spec_from_kv({"color": "red"})
    cfg = pipeline_config_from_kv({"pca_dims": "0"})
    assert cfg.pca_dims is None


def test_empty_config_is_the_defaults():
    assert pipeline_config_from_kv({}) == PipelineConfig()
    assert scene_spec_from_kv({}) == SceneSpec()


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Pipeline configuration", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            listed.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    keys = set()
    for key, _, kind in _CONFIG_KEYS:
        keys.update(("rows", "cols") if kind == "pair" else (key,))
    assert listed == keys


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "s.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "evrect.cli", "synth", "--output", str(out),
         "--duration-us", "20000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
