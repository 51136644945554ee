"""Command-line entry point.

Subcommands mirror the library layers: ``convert`` (bit-depth), ``quality``
(PSNR scoring), ``bd`` (curve comparison from CSV files), ``measure``
(time/energy of an arbitrary command), ``run`` (full benchmark from a JSON
config), and ``report`` (tables from one or more result stores).

Exit codes: 0 on success, 1 for validation problems (bad arguments, bad
files, inconsistent stores), 2 for runtime failures of external tools and
for I/O errors, such as an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from . import __version__, bitdepth, report, yuv
from .config import load_config
from .curves import bd_delta, ceil_qp, export_comparison_csv, find_intersections, overlap_range, read_curve_csv
from .errors import ExecutionError, ValidationError
from .measure import measure_process
# psnr_plane is unused here; perfbench's tracer test reads cli.psnr_plane.
from .metrics import external_metric, psnr_plane, score_files
from .pipeline import Runner
from .store import STORE_SCHEMA, ResultStore, to_json_float
from .yuv import PlaneFormat


class _ArgumentError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage errors as validation failures."""

    def error(self, message):
        raise _ArgumentError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hdrbench", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (store schema {STORE_SCHEMA})",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, help_text: str) -> _Parser:
        return sub.add_parser(name, help=help_text, description=help_text)

    p = add("convert", "Convert raw 4:2:0 YUV between 10-bit and 8-bit.")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--direction", required=True, choices=("10to8", "8to10"))
    p.add_argument("--width", required=True, type=int)
    p.add_argument("--height", required=True, type=int)

    p = add("quality", "Score a 10-bit reconstruction against its 10-bit source.")
    p.add_argument("--ref", required=True, type=Path)
    p.add_argument("--test", required=True, type=Path)
    p.add_argument("--width", required=True, type=int)
    p.add_argument("--height", required=True, type=int)
    p.add_argument("--metric-cmd", help="external metric template with {REF} and {TEST}")

    p = add("bd", "Compare two rate/quality curves stored as qp,quality,cost CSV.")
    p.add_argument("--curve-a", required=True, type=Path, help="reference curve")
    p.add_argument("--curve-b", required=True, type=Path, help="contender curve")
    p.add_argument("--export", type=Path, metavar="CSV",
                   help="write interpolated curves and RCD for plotting")

    p = add("measure", "Measure wall time, CPU time and RAPL energy of a command.")
    p.add_argument("--cmd", required=True, help="command line to run (quoted)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--rapl-domain", metavar="NAME|PATH", help="a name under /sys/class/powercap, or an absolute path")

    p = add("run", "Execute the full benchmark described by a JSON config.")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--fresh-measurements", action="store_true",
                   help="re-run every cell even if a cached record exists")

    p = add("report", "Render comparison tables from one or more result stores.")
    p.add_argument("--store", required=True, action="append", type=Path,
                   help="result store (repeat to merge hosts)")
    p.add_argument("--baseline", default=report.BASELINE_VARIANT)
    p.add_argument("--contender", default=report.CONTENDER_VARIANT)
    p.add_argument("--csv", type=Path, help="also write the table(s) as CSV")

    return parser


def _cmd_convert(args) -> int:
    in_fmt = PlaneFormat(args.width, args.height, 10 if args.direction == "10to8" else 8)
    frames = bitdepth.convert_file(args.input, args.output, in_fmt)
    print(f"wrote {frames} frame(s) to {args.output}")
    return 0


def _cmd_quality(args) -> int:
    fmt = PlaneFormat(args.width, args.height, 10)
    quality = score_files(args.ref, args.test, fmt)
    if args.metric_cmd:
        with tempfile.TemporaryDirectory(prefix="hdrbench-metric-") as tmp:
            score = external_metric(args.ref, args.test, args.metric_cmd, Path(tmp) / "metric")
        quality = replace(quality, external_score=score)
    payload = {"frames": yuv.frame_count(args.ref, fmt),
               **{f.name: to_json_float(getattr(quality, f.name)) for f in fields(quality)}}
    if not args.metric_cmd:
        del payload["external_score"]
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_bd(args) -> int:
    curve_a = read_curve_csv(args.curve_a)
    curve_b = read_curve_csv(args.curve_b)
    crossings = find_intersections(curve_a, curve_b)
    payload = {
        "bd_percent": bd_delta(curve_a, curve_b),
        "overlap": list(overlap_range(curve_a, curve_b)),
        "intersections": crossings,
        "ceil_qp": ceil_qp(crossings, curve_a),
    }
    if args.export:
        export_comparison_csv(curve_a, curve_b, args.export)
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_measure(args) -> int:
    # The command's output is kept only so that a failure can quote its tail.
    with tempfile.TemporaryDirectory(prefix="hdrbench-measure-") as tmp:
        result = measure_process(
            shlex.split(args.cmd),
            repetitions=args.reps,
            rapl_domain=args.rapl_domain,
            logs=Path(tmp) / "command",
        )
    payload = {
        "repetitions": len(result.samples),
        "retained": result.retained_count,
        "mean_wall_time_s": result.mean_wall_time,
        "mean_cpu_time_s": result.mean_cpu_time,
        "mean_energy_j": result.mean_energy_joules,
        "samples": [
            {"wall_s": s.wall_time, "cpu_s": s.cpu_time, "energy_j": s.energy_joules}
            for s in result.samples
        ],
        "warnings": list(result.warnings),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.fresh_measurements:
        config = replace(config, cache="fresh")
    runner = Runner(config)

    def progress(index, total, cell, state):
        print(
            f"[{index}/{total}] {cell.sequence.name}/{cell.variant.name}/qp{cell.qp:02d}: {state}"
        )

    runner.run(progress=progress)
    print(
        f"done: {runner.executed_cells} cell(s) measured, {runner.reused_cells} reused, "
        f"{runner.encoder_invocations} encoder invocation(s), "
        f"{runner.decoder_invocations} decoder invocation(s); store: {config.store_path}"
    )
    return 0


def _cmd_report(args) -> int:
    merged = ResultStore()
    for store_path in args.store:
        if not Path(store_path).is_file():
            raise ValidationError(f"store not found: {store_path}")
        merged.merge(ResultStore.load(store_path))
    # Each quality axis's table, and the tag its CSV's name carries.
    axes = {"psnr_yuv": ""}
    if report.has_external_scores(merged):
        axes["external"] = ".external"
    for axis, tag in axes.items():
        table = report.build_table(merged, baseline=args.baseline, contender=args.contender, quality_axis=axis)
        print(report.render_text(table))
        if args.csv:
            report.write_csv(table, args.csv.with_name(args.csv.stem + tag + args.csv.suffix))
    return 0


_COMMANDS = {
    "convert": _cmd_convert,
    "quality": _cmd_quality,
    "bd": _cmd_bd,
    "measure": _cmd_measure,
    "run": _cmd_run,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExecutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
