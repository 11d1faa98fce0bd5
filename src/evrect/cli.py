"""Command-line interface.

Subcommands: filter, synth, train, classify, detect, bench, tree dump.
Exit codes: 0 success, 1 usage error, 2 data error.  Config files use
one `key = value` per line with `#` comments.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

from . import _native
from .bundle import export_text
from .detector import evaluate
from .errors import DataError, EvrectError, UsageError
from .events import SensorGeometry, parse_csv, write_csv
from .filtering import FilterConfig, cascade
from .kdtree import dump_rom
from .pgm import to_pgm
from .pipeline import (
    _CONFIG_KEYS,
    PROFILES,
    PipelineConfig,
    _with_attrs,
    fifo_snapshot,
    load_bundle,
    run_bench,
    run_classify,
    run_detect,
    save_bundle,
    train_pipeline,
    window_spans,
)
from .synth import SHAPES, SceneSpec, parse_truth_csv, synth_scene, write_truth_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_kv(text: str, source: str = "config") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{source} line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


# SceneSpec's keys, read as the pipeline's are (see pipeline._CONFIG_KEYS)
_SCENE_KEYS = (
    ("shape", "shape", "str"),
    ("geometry", "geometry", "pair"),
    ("start_x", "start_x", "float"),
    ("start_y", "start_y", "float"),
    ("vx", "vx", "float"),
    ("vy", "vy", "float"),
    ("size", "size", "float"),
    ("duration_us", "duration_us", "int"),
    ("event_rate", "event_rate", "float"),
    ("noise_rate", "noise_rate", "float"),
    ("frame_interval_us", "frame_interval_us", "int"),
)

# the keys of a geometry pair in a config file
_PAIR_KEYS = ("rows", "cols")


def _text_value(kv: dict[str, str], key: str, kind: str, default):
    """``kv.pop(key)`` read as a value of ``kind``, or ``default`` when it is
    absent; an "int?" of 0 is unset."""
    if kind == "pair":
        rows, cols = _PAIR_KEYS
        return SensorGeometry(n_rows=_text_value(kv, rows, "int", default.n_rows),
                              n_cols=_text_value(kv, cols, "int", default.n_cols))
    if key not in kv:
        return default
    raw = kv.pop(key)
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key}: expected a boolean, got {raw!r}")
    try:
        if kind == "int?":
            return int(raw) or None
        return {"int": int, "float": float, "str": str}[kind](raw)
    except ValueError:
        raise UsageError(f"config key {key}: cannot parse {raw!r}") from None


def _from_kv(kv: dict[str, str], keys, default, what: str):
    kv = dict(kv)
    values = {attr: _text_value(kv, key, kind, attrgetter(attr)(default)) for key, attr, kind in keys}
    if kv:
        raise UsageError(f"unknown {what} keys: {', '.join(sorted(kv))}")
    return _with_attrs(default, values)


def pipeline_config_from_kv(kv: dict[str, str]) -> PipelineConfig:
    return _from_kv(kv, _CONFIG_KEYS, PipelineConfig(), "config")


def scene_spec_from_kv(kv: dict[str, str]) -> SceneSpec:
    return _from_kv(kv, _SCENE_KEYS, SceneSpec(), "scene")


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; a DataError naming the file and line if not."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise DataError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} "
                        "is not UTF-8 text") from None


def _read_events(path: str, geometry: SensorGeometry):
    return parse_csv(Path(path).read_bytes(), geometry)


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _format_score(v) -> str:
    if isinstance(v, float):
        return "%.9g" % v
    return str(int(v))


def _dump_heat(tp, stream, out_dir: str) -> None:
    cfg = tp.config
    filtered = cascade(stream, cfg.filter_cfg)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for _, end in window_spans(len(filtered), cfg.s_window):
        counts, pooled = fifo_snapshot(cfg.geometry, cfg.rect_cfg, filtered, end - 1)
        t_end = int(filtered.t[end - 1])
        (directory / f"window_{t_end}_counts.pgm").write_text(to_pgm(counts))
        (directory / f"window_{t_end}_pooled.pgm").write_text(to_pgm(pooled))


def _cmd_filter(args) -> int:
    geometry = SensorGeometry(n_rows=args.rows, n_cols=args.cols)
    stream = _read_events(args.input, geometry)
    cfg = FilterConfig(theta_noise_us=args.theta_noise_us, theta_ref_us=args.theta_ref_us)
    kept = cascade(stream, cfg)
    Path(args.output).write_text(write_csv(kept))
    print(f"kept {len(kept)} of {len(stream)} events")
    return 0


def _cmd_synth(args) -> int:
    kv = parse_kv(_read_text(args.spec), source=args.spec) if args.spec else {}
    for key, _, kind in _SCENE_KEYS:
        for name in _PAIR_KEYS if kind == "pair" else (key,):
            value = getattr(args, name)
            if value is not None:
                kv[name] = str(value)
    spec = scene_spec_from_kv(kv)
    stream, truth = synth_scene(spec, seed=args.seed)
    Path(args.output).write_text(write_csv(stream))
    if args.truth:
        Path(args.truth).write_text(write_truth_csv(truth))
    print(f"wrote {len(stream)} events over {len(truth)} frames")
    return 0


def _labeled_inputs(args) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    if args.manifest:
        for lineno, raw in enumerate(_read_text(args.manifest).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "," not in line:
                raise UsageError(f"manifest line {lineno}: expected label,path")
            label, _, path = line.partition(",")
            pairs.append((label.strip(), path.strip()))
    for item in args.inputs:
        if "=" not in item:
            raise UsageError(f"training input {item!r}: expected label=path")
        label, _, path = item.partition("=")
        pairs.append((label, path))
    if not pairs:
        raise UsageError("no training inputs; pass label=path arguments or --manifest")
    return pairs


def _cmd_train(args) -> int:
    kv = parse_kv(_read_text(args.config), source=args.config) if args.config else {}
    if args.seed is not None:
        kv["seed"] = str(args.seed)
    if args.profile is not None:
        kv["profile"] = str(args.profile)
    config = pipeline_config_from_kv(kv)
    labeled = []
    for label, path in _labeled_inputs(args):
        try:
            labeled.append((label, _read_events(path, config.geometry)))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    tp = train_pipeline(config, labeled, log=print)
    Path(args.output).write_bytes(save_bundle(tp))
    print(f"bundle written to {args.output}")
    return 0


def _cmd_classify(args) -> int:
    tp = load_bundle(Path(args.bundle).read_bytes())
    stream = _read_events(args.input, tp.config.geometry)
    results = run_classify(tp, stream, profile=args.profile)
    header = "window_end_timestamp,label," + ",".join(
        f"score_{name}" for name in tp.class_names
    )
    lines = [header]
    for r in results:
        scores = ",".join(_format_score(v) for v in r.scores.tolist())
        lines.append(f"{r.t_end},{r.label},{scores}")
    _write_out(args.output, "\n".join(lines) + "\n")
    if args.dump_heat:
        _dump_heat(tp, stream, args.dump_heat)
    return 0


def _cmd_detect(args) -> int:
    tp = load_bundle(Path(args.bundle).read_bytes())
    stream = _read_events(args.input, tp.config.geometry)
    target = args.target or tp.class_names[0]
    rows = run_detect(tp, stream, target, profile=args.profile)
    lines = ["window_end_timestamp,x,y,threshold,landmark_hits"]
    for r in rows:
        x = "" if r.x is None else r.x
        y = "" if r.y is None else r.y
        lines.append(f"{r.t_end},{x},{y},{r.threshold},{r.landmark_hits}")
    _write_out(args.output, "\n".join(lines) + "\n")
    if args.truth:
        truth = parse_truth_csv(_read_text(args.truth))
        detections = [(r.t_end, r.x, r.y) for r in rows if r.x is not None]
        m = evaluate(detections, truth)
        flag = " (no detections)" if m.no_detections else ""
        print(
            f"precision {m.precision:.3f} recall {m.recall:.3f} "
            f"in_box {m.in_box} detections {m.n_detections} windows {m.n_truth_windows}{flag}"
        )
    if args.dump_heat:
        _dump_heat(tp, stream, args.dump_heat)
    return 0


def _cmd_bench(args) -> int:
    tp = load_bundle(Path(args.bundle).read_bytes())
    data = Path(args.input).read_bytes()
    _native.load()  # built or loaded before the clock starts, as run_bench does
    begin = time.perf_counter_ns()
    stream = parse_csv(data, tp.config.geometry)
    parse_ns = time.perf_counter_ns() - begin
    report = run_bench(tp, stream, profile=args.profile)
    # the parse comes first, but is not in the classify path's wall time
    parse_us = parse_ns / len(stream) / 1e3 if len(stream) else 0.0
    print(replace(report, stage_us={"parse": parse_us, **report.stage_us}).as_text())
    return 0


def _cmd_tree_dump(args) -> int:
    tp = load_bundle(Path(args.bundle).read_bytes())
    if tp.packed is None:
        raise DataError("bundle has no packed tree (capacity exceeded at training time)")
    _write_out(args.output, dump_rom(tp.packed))
    return 0


def _cmd_bundle_text(args) -> int:
    _write_out(args.output, export_text(Path(args.bundle).read_bytes()))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="evrect", description="Event-stream object recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="run the two-stage noise filter over an event CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--rows", type=int, default=SensorGeometry().n_rows)
    p.add_argument("--cols", type=int, default=SensorGeometry().n_cols)
    p.add_argument("--theta-noise-us", type=int, default=FilterConfig().theta_noise_us)
    p.add_argument("--theta-ref-us", type=int, default=FilterConfig().theta_ref_us)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    p.add_argument("--output", required=True)
    p.add_argument("--truth")
    p.add_argument("--spec", help="key=value scene file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shape", choices=SHAPES)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--start-x", dest="start_x", type=float)
    p.add_argument("--start-y", dest="start_y", type=float)
    p.add_argument("--vx", type=float)
    p.add_argument("--vy", type=float)
    p.add_argument("--size", type=float)
    p.add_argument("--duration-us", dest="duration_us", type=int)
    p.add_argument("--event-rate", dest="event_rate", type=float)
    p.add_argument("--noise-rate", dest="noise_rate", type=float)
    p.add_argument("--frame-interval-us", dest="frame_interval_us", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a pipeline bundle from labeled event CSVs")
    p.add_argument("inputs", nargs="*", metavar="label=path")
    p.add_argument("--manifest", help="file of label,path lines")
    p.add_argument("--config", help="key=value pipeline config file")
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--profile", choices=PROFILES)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="per-window classification of an event CSV")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="CSV path, default stdout")
    p.add_argument("--profile", choices=PROFILES)
    p.add_argument("--dump-heat", dest="dump_heat", help="directory for PGM matrix dumps")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("detect", help="per-window target localization")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--target", help="target class, default first class")
    p.add_argument("--output", help="CSV path, default stdout")
    p.add_argument("--truth", help="ground-truth CSV for precision/recall")
    p.add_argument("--profile", choices=PROFILES)
    p.add_argument("--dump-heat", dest="dump_heat", help="directory for PGM matrix dumps")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "bench",
        help="CSV parse us/event, then throughput and per-stage us/event of the classify path "
        "(no per-event latency)",
    )
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--profile", choices=PROFILES)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("tree", help="tree utilities")
    tree_sub = p.add_subparsers(dest="tree_command", required=True)
    q = tree_sub.add_parser("dump", help="write the packed ROM image as hex")
    q.add_argument("--bundle", required=True)
    q.add_argument("--output", help="hex path, default stdout")
    q.set_defaults(func=_cmd_tree_dump)

    p = sub.add_parser("bundle", help="bundle utilities")
    bundle_sub = p.add_subparsers(dest="bundle_command", required=True)
    q = bundle_sub.add_parser("text", help="lossless text export of a bundle")
    q.add_argument("--bundle", required=True)
    q.add_argument("--output", help="text path, default stdout")
    q.set_defaults(func=_cmd_bundle_text)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EvrectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
