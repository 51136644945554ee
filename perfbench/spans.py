"""Span tracing of hdrbench from the outside, for the traced benchmark run.

``install`` replaces every public function of the traced modules, and the
public methods of the classes whose layers the benchmark reports, with a
wrapper that records a span: name, start, end, parent span and an operation
id shared by every span under one top-level call or one pipeline cell. The
wrapper goes on every module attribute that holds the original, so names a
caller imported by value (``pipeline.psnr_plane``, ``cli.measure_process``)
are traced too. Spans stay in memory until ``write``; ``uninstall`` restores
the originals. Nothing here runs in the untraced benchmark run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

TRACED_MODULES = (
    "yuv", "bitdepth", "metrics", "pipeline", "measure",
    "mockcodec", "akima", "curves", "report", "cli",
)
TRACED_CLASSES = {"pipeline": ("Runner", "ResultStore"), "akima": ("AkimaSpline",)}
# Called once per stored value or record: a span each would multiply the
# trace overhead of store I/O, and no layer metric reads them.
UNTRACED = {"pipeline.to_json_float", "pipeline.from_json_float", "pipeline.ResultStore.add"}
# Spans that start an operation of their own (one pipeline cell).
NEW_OPERATION = {"pipeline.Runner.execute_cell"}


def _size(path) -> int:
    return os.path.getsize(path)


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        # [name, start, end, parent index, operation id, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_op = 0
        self._restore: list[tuple[object, str, object]] = []
        self._digested: set[tuple[int, str]] = set()
        self._runners: list = []  # keeps ids in _digested unique

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0 or name in NEW_OPERATION:
            op = self._next_op
            self._next_op += 1
        else:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, op, None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, counter):
        """``name`` is the span name, or a function of the call's arguments."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, counter)
        before = getattr(counter, "before", None)
        label = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before else None
            index = self.begin(label(args) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter:
                self.spans[index][5] = counter(args, result, pre) if before else counter(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(index)
                    if counter:
                        self.spans[index][5] = counter(args, item)
                    yield item
            finally:
                inner.close()

        return traced

    def _counters(self):
        def sequence_digest_before(args):
            runner, spec = args[0], args[1]
            key = (id(runner), spec.name)
            first = key not in self._digested
            if first:
                self._digested.add(key)
                self._runners.append(runner)
            return first

        def sequence_digest(args, result, first):
            return {"bytes": _size(args[1].path) if first else 0}

        sequence_digest.before = sequence_digest_before

        def runner_run(args, result, pre):
            runner = args[0]
            return {"executed": runner.executed_cells - pre[0], "reused": runner.reused_cells - pre[1]}

        runner_run.before = lambda args: (args[0].executed_cells, args[0].reused_cells)

        def measure_process(args, result):
            walls = [s.wall_time for s in result.samples]
            cv = statistics.stdev(walls) / statistics.fmean(walls) * 100.0 if len(walls) > 1 else None
            return {"reps": len(walls), "child_wall": sum(walls), "cv": cv}

        return {
            "yuv.iter_frames": lambda args, frame: {"frames": 1, "bytes": frame.format.frame_bytes},
            "yuv.write_frames": lambda args, result: {"bytes": _size(args[0])},
            "bitdepth.tonemap_plane": lambda args, result: {"samples": args[0].size},
            "bitdepth.expand_plane": lambda args, result: {"samples": args[0].size},
            "metrics.psnr_plane": lambda args, result: {"samples": args[0].size},
            "pipeline.file_sha256": lambda args, result: {"bytes": _size(args[0])},
            "pipeline.Runner.sequence_digest": sequence_digest,
            "pipeline.Runner.run": runner_run,
            "pipeline.ResultStore.save": lambda args, result: {"bytes": _size(args[1])},
            "pipeline.ResultStore.load": lambda args, result: {"records": len(result)},
            "measure.measure_process": measure_process,
        }

    def install(self) -> None:
        """Wrap the traced layers of an imported hdrbench in place."""
        modules = {short: importlib.import_module(f"hdrbench.{short}") for short in TRACED_MODULES}
        holders = [m for n, m in sys.modules.items() if n == "hdrbench" or n.startswith("hdrbench.")]
        counters = self._counters()
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                full = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or full in UNTRACED):
                    continue
                # cli.main spans are named after the subcommand in argv.
                name = (lambda args: f"cli.main.{args[0][0]}") if full == "cli.main" else full
                wrapped = self._wrap(name, fn, counters.get(full))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, value))
                            setattr(holder, key, wrapped)
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(module, cls_name)
                for attr, raw in list(vars(cls).items()):
                    full = f"{short}.{cls_name}.{attr}"
                    public = not attr.startswith("_") or attr in ("__init__", "__call__")
                    if not public or full in UNTRACED:
                        continue
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if not inspect.isfunction(fn):
                        continue
                    wrapped = self._wrap(full, fn, counters.get(full))
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, busy_s, self_s and summed counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, parent, op, counts), inner in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - inner
            for key, value in (counts or {}).items():
                if key == "cv":
                    entry.setdefault("cv", [])
                    if value is not None:
                        entry["cv"].append(value)
                else:
                    entry[key] = entry.get(key, 0) + value
        return out

    def coverage(self, windows: list[tuple[float, float]]) -> float:
        """Share of the timed windows covered by top-level spans, percent."""
        total = sum(b - a for a, b in windows)
        covered = 0.0
        for name, start, end, parent, op, counts in self.spans:
            if parent < 0:
                for a, b in windows:
                    covered += max(0.0, min(end, b) - max(start, a))
        return 100.0 * covered / total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


# metric -> (span name, field); fields are stats() keys.
LAYER_SOURCES = {
    "yuv.iter_frames.frames": ("yuv.iter_frames", "frames"),
    "yuv.iter_frames.bytes": ("yuv.iter_frames", "bytes"),
    "yuv.iter_frames.busy_s": ("yuv.iter_frames", "busy_s"),
    "yuv.write_frames.bytes": ("yuv.write_frames", "bytes"),
    "yuv.write_frames.self_s": ("yuv.write_frames", "self_s"),
    "bitdepth.tonemap_plane.samples": ("bitdepth.tonemap_plane", "samples"),
    "bitdepth.tonemap_plane.busy_s": ("bitdepth.tonemap_plane", "busy_s"),
    "bitdepth.expand_plane.samples": ("bitdepth.expand_plane", "samples"),
    "bitdepth.expand_plane.busy_s": ("bitdepth.expand_plane", "busy_s"),
    "metrics.psnr_plane.calls": ("metrics.psnr_plane", "calls"),
    "metrics.psnr_plane.samples": ("metrics.psnr_plane", "samples"),
    "metrics.psnr_plane.busy_s": ("metrics.psnr_plane", "busy_s"),
    "pipeline.file_sha256.bytes": ("pipeline.file_sha256", "bytes"),
    "pipeline.file_sha256.busy_s": ("pipeline.file_sha256", "busy_s"),
    "pipeline.Runner.sequence_digest.bytes": ("pipeline.Runner.sequence_digest", "bytes"),
    "pipeline.Runner.sequence_digest.busy_s": ("pipeline.Runner.sequence_digest", "busy_s"),
    "pipeline.Runner.execute_cell.calls": ("pipeline.Runner.execute_cell", "calls"),
    "pipeline.Runner.execute_cell.busy_s": ("pipeline.Runner.execute_cell", "busy_s"),
    "pipeline.Runner.execute_cell.self_s": ("pipeline.Runner.execute_cell", "self_s"),
    "pipeline.ResultStore.save.calls": ("pipeline.ResultStore.save", "calls"),
    "pipeline.ResultStore.save.bytes": ("pipeline.ResultStore.save", "bytes"),
    "pipeline.ResultStore.save.busy_s": ("pipeline.ResultStore.save", "busy_s"),
    "pipeline.ResultStore.load.records": ("pipeline.ResultStore.load", "records"),
    "pipeline.ResultStore.load.busy_s": ("pipeline.ResultStore.load", "busy_s"),
    "pipeline.ResultStore.merge.busy_s": ("pipeline.ResultStore.merge", "busy_s"),
    "measure.measure_process.calls": ("measure.measure_process", "calls"),
    "measure.measure_process.reps": ("measure.measure_process", "reps"),
    "measure.measure_process.busy_s": ("measure.measure_process", "busy_s"),
    "measure.measure_process.child_wall_s": ("measure.measure_process", "child_wall"),
    "akima.AkimaSpline.fits": ("akima.AkimaSpline.__init__", "calls"),
    "akima.AkimaSpline.evals": ("akima.AkimaSpline.__call__", "calls"),
    "curves.bd_delta.calls": ("curves.bd_delta", "calls"),
    "curves.bd_delta.busy_s": ("curves.bd_delta", "busy_s"),
    "curves.find_intersections.calls": ("curves.find_intersections", "calls"),
    "curves.find_intersections.busy_s": ("curves.find_intersections", "busy_s"),
    "curves.compare.self_s": ("curves.compare", "self_s"),
    "report.build_table.self_s": ("report.build_table", "self_s"),
    "report.render_text.busy_s": ("report.render_text", "busy_s"),
    "report.write_csv.busy_s": ("report.write_csv", "busy_s"),
    "cli.main.convert.busy_s": ("cli.main.convert", "busy_s"),
    "cli.main.quality.busy_s": ("cli.main.quality", "busy_s"),
}


def layer_metrics(stats: dict[str, dict], probe_cvs: list[float]) -> dict[str, float]:
    """The span-derived per-layer metrics; layers a workload skips read 0.
    ``probe_cvs`` are the repetition CVs of the untraced probe measurements."""
    out = {
        metric: float(stats.get(span, {}).get(field, 0)) for metric, (span, field) in LAYER_SOURCES.items()
    }
    akima = [stats.get(f"akima.AkimaSpline.{m}", {}).get("busy_s", 0.0) for m in ("__init__", "__call__")]
    out["akima.AkimaSpline.busy_s"] = sum(akima)
    runs = stats.get("pipeline.Runner.run", {})
    planned = runs.get("executed", 0) + runs.get("reused", 0)
    out["pipeline.cache_hit_ratio"] = runs.get("reused", 0) / planned if planned else 0.0
    measured = stats.get("measure.measure_process", {})
    reps = measured.get("reps", 0)
    out["measure.measure_process.overhead_ms_per_rep"] = (
        1000.0 * (measured["busy_s"] - measured["child_wall"]) / reps if reps else 0.0
    )
    cvs = measured.get("cv", []) + probe_cvs
    out["measure.rep_cv_pct"] = statistics.median(cvs) if cvs else 0.0
    return out
