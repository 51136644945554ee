"""The four benchmark workloads, their timed loop, probes and metrics.

Load model: hdrbench is a batch tool, so every workload is a closed loop of
one operation at a time in one process with no threads. Each workload
repeats a *pass* over seeded inputs until the run's time is used up (at
least one pass, and no pass that is predicted to overrun). Oracle checks run
between passes, outside the timed windows.

Every run reports the same three gated end-to-end metrics, each defined per
workload (see README.md): ``setup_s``, ``op_ms`` and ``peak_rss_mb``. The workload's own end-to-end figures (``study_s``,
``convert_MBps``, ``floor_ms_p50`` ...) are reported beside them by name.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Layer functions are called through their modules, so that the traced run's
# wrappers (installed on module attributes) see the benchmark's own calls.
from hdrbench import cli, measure, mockcodec, report
from hdrbench.config import RunConfig, SequenceSpec, VariantConfig, render_template
from hdrbench.pipeline import ResultStore, RunRecord, Runner
from hdrbench.yuv import PlaneFormat

import oracles
import spans
import synth

# The mock study's codec templates (scripts/mock_study.py): the codec runs as
# a child interpreter, as a real encoder binary would.
MOCK_ENCODE = (
    f"{sys.executable} -m hdrbench.mockcodec encode --input {{INPUT}} "
    "--output {OUTPUT} --width {WIDTH} --height {HEIGHT} "
    "--bit-depth {BITDEPTH} --qp {QP}"
)
MOCK_DECODE = (
    f"{sys.executable} -m hdrbench.mockcodec decode --input {{INPUT}} "
    "--output {OUTPUT} --output-depth {BITDEPTH}"
)
TRUE = "/bin/true"


@dataclass(frozen=True)
class Sizes:
    """Input sizes. FULL is the benchmark; TINY only keeps the smoke test short."""

    width: int = 1920
    height: int = 1080
    study_frames: int = 2
    report_sequences: int = 100
    report_studies: int = 20
    checkpoints_per_pass: int = 10
    # 68 frames of 1080p 10-bit are 423 MB, four times a 105 MiB L3.
    convert_frames: int = 68
    floor_reps: int = 25
    floor_warmup_reps: int = 500
    setups: int = 3
    probe_floor_reps: int = 200


FULL = Sizes()
TINY = Sizes(width=64, height=64, study_frames=1, report_sequences=4, report_studies=2,
             checkpoints_per_pass=3, convert_frames=4, floor_reps=20, floor_warmup_reps=20,
             probe_floor_reps=20)


@dataclass
class Outcome:
    """What one phase (untraced or traced) of a run measured."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def check(self, mismatches: list[str]) -> None:
        """Count one operation; it failed if its oracle found anything."""
        self.attempted += 1
        if mismatches:
            self.failed += 1
            self.failures.extend(mismatches[:5])

    def timed(self, start: float, end: float) -> float:
        self.windows.append((start, end))
        return end - start

    def add(self, name: str, *values: float) -> None:
        self.samples.setdefault(name, []).extend(values)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def rows_of(table) -> dict:
    return {
        row.sequence: {"rate": dict(row.bd_rate_percent), "time": dict(row.bdt_percent),
                       "energy": dict(row.bdee_percent)}
        for row in table.rows
    }


def expected_report(truth: synth.StudyTruth) -> dict:
    """BD columns the table must show, recomputed from the study's truth:
    BD-rate of 8-8 and 8-10, BDT per host and BDEE per host with energy,
    each against 10-10."""
    ref, c88, c810 = (truth.variants.index(v) for v in ("10-10", "8-8", "8-10"))
    expected = {}
    for s, name in enumerate(truth.sequences):
        q = truth.psnr_yuv[s]

        def bd(cost, a, b):
            return oracles.bd_percent(q[a], cost[a], q[b], cost[b])

        expected[name] = {
            "rate": {"8-8": bd(truth.rate_kbps[s], ref, c88), "8-10": bd(truth.rate_kbps[s], ref, c810)},
            "time": {h: bd(cost[s], ref, c88) for h, cost in truth.cpu_time.items()},
            "energy": {h: bd(cost[s], ref, c88) for h, cost in truth.energy.items()},
        }
    return expected


# -- workloads ---------------------------------------------------------------


class Workload:
    steps: tuple[str, ...] = ()  # separately timed calls of a pass, if any

    def fastest(self, out: Outcome) -> tuple[float, float]:
        """The gated figures of a phase: fastest pass (s), fastest operation (ms).

        A pass made of separately timed calls counts as the sum of each
        call's fastest run: a short call is more often timed undisturbed
        than a whole pass is.
        """
        pass_s = sum(min(out.samples[step]) for step in self.steps) if self.steps else min(out.pass_s)
        return pass_s, min(out.op_ms) if out.op_ms else math.nan


class ColdStudy(Workload):
    """Fresh mock-codec study of one 1080p clip over 4 variants x 6 QPs, the
    table, then a warm rerun of the same config against the filled store."""

    def __init__(self, work: Path, sizes: Sizes, seed: int, digest_dir: Path):
        self.sizes, self.seed = sizes, seed
        self.clip = work / "clip1.yuv"
        self.digest_file = digest_dir / f"cold_study-{sizes.width}x{sizes.height}-seed{seed}.json"
        self.expected_psnr: dict[tuple[int, int], dict] = {}
        self.digests: dict[str, str] | None = None
        variants = tuple(
            VariantConfig(name, *synth.VARIANTS[name], MOCK_ENCODE, MOCK_DECODE) for name in synth.VARIANTS
        )
        self.config = RunConfig(
            sequences=(SequenceSpec("clip1", self.clip, PlaneFormat(sizes.width, sizes.height, 10),
                                    synth.FRAME_RATE),),
            variants=variants,
            qp_ladder=synth.QP_LADDER,
            repetitions=1,
            host_label="benchhost",
            store_path=work / "results.jsonl",
            work_dir=work / "cells",
            cache="fresh",
        )
        self.warm_config = dataclasses.replace(self.config, cache="reuse")

    def setup(self) -> None:
        synth.write_smooth_clip(self.clip, self.seed, self.sizes.width, self.sizes.height,
                                self.sizes.study_frames)

    def fastest(self, out: Outcome) -> tuple[float, float]:
        """The operation is one cell of the fastest study: its wall time over
        the 24 cells. A whole study is timed more steadily than its fastest
        single cell, whose two interpreter start-ups swing with the machine."""
        pass_s = min(out.pass_s)
        return pass_s, 1000.0 * pass_s / (len(synth.VARIANTS) * len(synth.QP_LADDER))

    def run_pass(self, out: Outcome) -> None:
        self.config.store_path.unlink(missing_ok=True)
        shutil.rmtree(self.config.work_dir, ignore_errors=True)
        stamps: list[float] = []
        keys: list[str] = []

        def progress(index, count, cell, state):
            stamps.append(perf_counter())
            keys.append(cell.cache_key)

        t0 = perf_counter()
        runner = Runner(self.config)
        t_run = perf_counter()
        store = runner.run(progress=progress)
        table = report.build_table(store)
        text = report.render_text(table)
        study_s = out.timed(t0, perf_counter())

        t2 = perf_counter()
        warm = Runner(self.warm_config)
        warm_store = warm.run()
        warm_text = report.render_text(report.build_table(warm_store))
        warm_s = out.timed(t2, perf_counter())

        cell_s = [b - a for a, b in zip([t_run] + stamps, stamps)]
        harness = [
            wall - sum(sample[0] for sample in store.records[key].samples)
            for wall, key in zip(cell_s, keys)
        ]
        out.pass_s.append(study_s)
        out.op_ms.extend(1000.0 * s for s in cell_s)
        out.add("study_s", study_s)
        out.add("warm_rerun_s", warm_s)
        out.add("cell_ms", *(1000.0 * s for s in cell_s))
        out.add("harness_ms", *(1000.0 * s for s in harness))
        out.add("child_peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)

        digests = {}
        for key in keys:
            record = store.records[key]
            where = f"{record.variant}/qp{record.qp}"
            digests[where] = record.bitstream_sha256
            out.check(self._cell_mismatches(record, where))
        out.check(self._table_mismatches(store, table))
        out.check(
            oracles.warm_mismatches(warm.encoder_invocations, warm.executed_cells, warm.reused_cells,
                                    len(keys))
            + ([] if warm_text == text else ["warm table differs from the fresh table"])
        )
        out.check(self._digest_mismatches(digests))

    def _cell_mismatches(self, record: RunRecord, where: str) -> list[str]:
        frames, w, h = self.sizes.study_frames, self.sizes.width, self.sizes.height
        want_bytes = oracles.mock_bitstream_bytes(frames, w, h, record.input_depth, record.qp)
        found = []
        if record.bitstream_bytes != want_bytes:
            found.append(f"{where}: bitstream {record.bitstream_bytes} bytes, expected {want_bytes}")
        key = (record.input_depth, record.qp)
        if key not in self.expected_psnr:
            self.expected_psnr[key] = oracles.mock_cell_psnr(self.clip, w, h, *key)
        reported = {"psnr_y": record.quality.psnr_y, "psnr_u": record.quality.psnr_u,
                    "psnr_v": record.quality.psnr_v, "psnr_yuv": record.quality.psnr_yuv}
        return found + oracles.psnr_mismatches(where, self.expected_psnr[key], reported)

    def _table_mismatches(self, store: ResultStore, table) -> list[str]:
        by_variant = {}
        for record in store.records.values():
            by_variant.setdefault(record.variant, []).append(record)

        def curve(variant, cost):
            records = by_variant[variant]
            return [r.quality.psnr_yuv for r in records], [cost(r) for r in records]

        rate = lambda r: r.bitstream_bytes * 8.0 * r.frame_rate / r.frames / 1000.0
        cpu = lambda r: r.cpu_time
        expected = {"clip1": {
            "rate": {v: oracles.bd_percent(*curve("10-10", rate), *curve(v, rate)) for v in ("8-8", "8-10")},
            "time": {"benchhost": oracles.bd_percent(*curve("10-10", cpu), *curve("8-8", cpu))},
            "energy": {},
        }}
        return oracles.table_mismatches(rows_of(table), expected)

    def _digest_mismatches(self, digests: dict[str, str]) -> list[str]:
        """Bitstream digests must repeat across passes and runs of one seed."""
        if self.digests is None:
            if self.digest_file.exists():
                self.digests = json.loads(self.digest_file.read_text())
            else:
                self.digest_file.write_text(json.dumps(digests, sort_keys=True))
                self.digests = digests
        changed = sorted(k for k in digests if self.digests.get(k) != digests[k])
        return [f"bitstream digest changed for seed {self.seed}: {', '.join(changed)}"] if changed else []

    def named(self, out: Outcome) -> dict:
        s = out.samples
        return {
            "study_s": (statistics.median(s["study_s"]), "s", len(s["study_s"])),
            "cell_ms_p50": (statistics.median(s["cell_ms"]), "ms", len(s["cell_ms"])),
            "harness_ms_per_cell_p50": (statistics.median(s["harness_ms"]), "ms", len(s["harness_ms"])),
            "child_peak_rss_mb": (max(s["child_peak_rss_mb"]), "MB", None),
            "warm_rerun_s": (statistics.median(s["warm_rerun_s"]), "s", len(s["warm_rerun_s"])),
        }


class ReportMerge(Workload):
    """Studies of 5 sequences, each kept in three per-host stores (one host
    with energy, so BDEE columns appear), are each loaded, merged, tabled,
    rendered and written as CSV. Then one host's stores are merged into its
    whole store, and new records are checkpointed into it one at a time, as
    that host's ``Runner.run`` would.

    Per host that is 100 sequences x 4 variants x 6 QPs (2400 records). Many
    small studies instead of one of 100 sequences keep each timed call short
    enough to be timed undisturbed on a shared machine.
    """

    HOSTS = ("host-a", "host-b", "host-c")
    ENERGY_HOST = "host-b"
    CALLS = tuple(f"load_{host}_s" for host in HOSTS) + ("merge_s", "table_s", "render_s", "csv_s")

    def __init__(self, work: Path, sizes: Sizes, seed: int, digest_dir: Path):
        self.sizes, self.seed = sizes, seed
        self.studies = sizes.report_studies
        self.steps = tuple(f"study{k}.{call}"
                           for k, call in itertools.product(range(self.studies), self.CALLS))
        self.paths = [[work / f"study{k}-{host}.jsonl" for host in self.HOSTS] for k in range(self.studies)]
        self.csv = [work / f"study{k}.csv" for k in range(self.studies)]
        self.checkpoint = work / "checkpoint.jsonl"
        self.expected = None
        self.next_new = 0

    def setup(self) -> None:
        self.truth = []
        for k, paths in enumerate(self.paths):
            per_host, truth = synth.synth_study(
                (self.seed, k), self.sizes.report_sequences // self.studies, self.HOSTS, self.ENERGY_HOST,
                prefix=f"s{k}seq")
            self.truth.append(truth)
            for path, host in zip(paths, self.HOSTS):
                synth.write_store(path, per_host[host])
        new, _ = synth.synth_study((self.seed, self.studies), self.sizes.report_sequences // 4,
                                   self.HOSTS[:1], energy_host="", prefix="new")
        self.new_records = new[self.HOSTS[0]]

    def _study(self, k: int, out: Outcome):
        """Load, merge, table, render and CSV of study ``k``, each call timed."""

        def timed(call: str, run):
            t = perf_counter()
            result = run()
            out.add(f"study{k}.{call}", out.timed(t, perf_counter()))
            return result

        stores = [timed(f"load_{host}_s", lambda p=path: ResultStore.load(p))
                  for host, path in zip(self.HOSTS, self.paths[k])]

        def merge():
            merged = ResultStore()
            for store in stores:
                merged.merge(store)
            return merged

        merged = timed("merge_s", merge)
        table = timed("table_s", lambda: report.build_table(merged))
        text = timed("render_s", lambda: report.render_text(table))
        timed("csv_s", lambda: report.write_csv(table, self.csv[k]))
        return stores, table, text

    def run_pass(self, out: Outcome) -> None:
        studies = [self._study(k, out) for k in range(self.studies)]
        report_s = sum(out.samples[step][-1] for step in self.steps)
        out.pass_s.append(report_s)
        out.add("report_s", report_s)

        if self.expected is None:
            self.expected = [expected_report(truth) for truth in self.truth]
        for k, (stores, table, text) in enumerate(studies):
            csv_rows = self.csv[k].read_text().count("\n")
            out.check(
                oracles.table_mismatches(rows_of(table), self.expected[k])
                + ([] if f"BDEE[{self.ENERGY_HOST}]" in text else [f"study {k}: no BDEE column"])
                + ([] if csv_rows == len(self.expected[k]) + 2 else [f"study {k}: CSV has {csv_rows} lines"])
            )

        host_store = ResultStore()
        for stores, _, _ in studies:
            host_store.merge(stores[0])
        appended = []
        for _ in range(self.sizes.checkpoints_per_pass):
            record = RunRecord.from_dict(self.new_records[self.next_new % len(self.new_records)])
            self.next_new += 1
            t = perf_counter()
            host_store.add(record)
            host_store.save(self.checkpoint)
            ms = 1000.0 * out.timed(t, perf_counter())
            out.op_ms.append(ms)
            out.add("checkpoint_ms", ms)
            appended.append(record.cache_key)
        with open(self.checkpoint) as fh:
            lines = fh.readlines()
        last_key = json.loads(lines[-1])["key"] if lines else None
        for key in appended:
            ok = len(lines) == len(host_store) and last_key == appended[-1] and key in host_store
            out.check([] if ok else [f"checkpoint holds {len(lines)} of {len(host_store)} records"])

    def named(self, out: Outcome) -> dict:
        s = out.samples
        return {
            "report_s": (statistics.median(s["report_s"]), "s", len(s["report_s"])),
            "checkpoint_ms_p50": (statistics.median(s["checkpoint_ms"]), "ms", len(s["checkpoint_ms"])),
        }


class ConvertScore(Workload):
    """``hdrbench convert`` 10->8, ``convert`` 8->10 on its output, then
    ``quality`` of that against the source, in process, on a clip four times
    the size of the L3 cache, stored as four segment files. Each step runs
    over all segments before the next step starts, so no step finds its
    input still in cache; per-segment calls are short enough to be timed
    undisturbed on a shared machine."""

    SEGMENTS = 4
    KINDS = ("convert_s", "expand_s", "quality_s")
    steps = tuple(f"{kind}.seg{i}" for kind, i in itertools.product(KINDS, range(SEGMENTS)))

    def __init__(self, work: Path, sizes: Sizes, seed: int, digest_dir: Path):
        self.sizes, self.seed = sizes, seed
        self.src = [work / f"source10-{i}.yuv" for i in range(self.SEGMENTS)]
        self.out8 = [work / f"converted8-{i}.yuv" for i in range(self.SEGMENTS)]
        self.out10 = [work / f"expanded10-{i}.yuv" for i in range(self.SEGMENTS)]
        geometry = ["--width", str(sizes.width), "--height", str(sizes.height)]
        self.argv = {
            "convert_s": [["convert", "--direction", "10to8", "--input", str(a), "--output", str(b), *geometry]
                          for a, b in zip(self.src, self.out8)],
            "expand_s": [["convert", "--direction", "8to10", "--input", str(a), "--output", str(b), *geometry]
                         for a, b in zip(self.out8, self.out10)],
            "quality_s": [["quality", "--ref", str(a), "--test", str(b), *geometry]
                          for a, b in zip(self.src, self.out10)],
        }
        self.verified: dict[int, tuple] = {}

    def setup(self) -> None:
        frames = self.sizes.convert_frames // self.SEGMENTS
        for i, path in enumerate(self.src):
            synth.write_noise_clip(path, (self.seed, i), self.sizes.width, self.sizes.height, frames)

    def run_pass(self, out: Outcome) -> None:
        w, h = self.sizes.width, self.sizes.height
        codes, reports, totals = [], [], {}
        for kind in self.KINDS:
            totals[kind] = 0.0
            for i, argv in enumerate(self.argv[kind]):
                captured = io.StringIO()
                with contextlib.redirect_stdout(captured):
                    t = perf_counter()
                    codes.append((argv, cli.main(argv)))
                    seconds = out.timed(t, perf_counter())
                out.add(f"{kind}.seg{i}", seconds)
                totals[kind] += seconds
                if kind == "quality_s":
                    reports.append(captured.getvalue())
        out.pass_s.append(sum(totals.values()))
        src_mb = sum(p.stat().st_size for p in self.src) / 1e6
        out.add("convert_MBps", src_mb / totals["convert_s"])
        out.add("expand_MBps", sum(p.stat().st_size for p in self.out8) / 1e6 / totals["expand_s"])
        out.add("quality_MBps", src_mb / totals["quality_s"])

        failed = [f"hdrbench {' '.join(argv[:3])} exited {code}" for argv, code in codes if code]
        if failed:
            out.check(failed)
            return
        for i, text in enumerate(reports):
            reported = json.loads(text[text.index("{"):])
            produced = (_sha256(self.out8[i]), _sha256(self.out10[i]), reported)
            if i not in self.verified:
                # Full oracles once; later passes must reproduce the verified bytes.
                expected = oracles.file_psnr(self.src[i], self.out10[i], w, h)
                checks = [
                    oracles.tonemap_mismatches(self.src[i], self.out8[i], w, h),
                    oracles.expand_mismatches(self.out8[i], self.out10[i], w, h),
                    oracles.psnr_mismatches(f"quality seg{i}", expected,
                                            {k: float(reported[k]) for k in expected}),
                ]
                if not any(checks):
                    self.verified[i] = produced
            else:
                checks = [
                    [] if got == want else [f"{kind} seg{i} output differs from the verified pass"]
                    for kind, got, want in zip(self.KINDS, produced, self.verified[i])
                ]
            for found in checks:
                out.check(found)

    def fastest(self, out: Outcome) -> tuple[float, float]:
        """The operation is one frame of the fastest pass."""
        pass_s, _ = super().fastest(out)
        return pass_s, 1000.0 * pass_s / self.sizes.convert_frames

    def named(self, out: Outcome) -> dict:
        s = out.samples
        steps = ("convert_MBps", "expand_MBps", "quality_MBps")
        return {k: (statistics.median(s[k]), "MB/s", len(s[k])) for k in steps}


class MeasureFloor(Workload):
    """``measure_process`` of /bin/true, many repetitions per call, no outlier
    trimming: the instrument's own timing floor. The input is fixed; the seed
    does not change it."""

    def __init__(self, work: Path, sizes: Sizes, seed: int, digest_dir: Path):
        self.sizes = sizes

    def setup(self) -> None:
        # Warm-up: the spawn path's page cache and lazy imports, as a user's
        # first measurement pays them.
        measure.measure_process([TRUE], repetitions=self.sizes.floor_warmup_reps, trim_outliers=False)

    def run_pass(self, out: Outcome) -> None:
        reps = self.sizes.floor_reps
        t = perf_counter()
        result = measure.measure_process([TRUE], repetitions=reps, trim_outliers=False)
        out.pass_s.append(out.timed(t, perf_counter()))
        walls_ms = [1000.0 * s.wall_time for s in result.samples]
        out.op_ms.extend(walls_ms)
        out.add("floor_ms", *walls_ms)
        out.check(oracles.sample_mismatches(TRUE, result.samples, reps, result.mean_wall_time))

    def named(self, out: Outcome) -> dict:
        floor = out.samples["floor_ms"]
        # Bookkeeping between calls counts: the clock runs from the first call to the last.
        elapsed = out.windows[-1][1] - out.windows[0][0]
        return {
            "floor_ms_p50": (statistics.median(floor), "ms", len(floor)),
            "floor_ms_p90": (quantile(floor, 0.9), "ms", len(floor)),
            "measure_reps_per_s": (len(floor) / elapsed, "1/s", len(floor)),
        }


WORKLOADS = {
    "cold_study": ColdStudy,
    "report_merge": ReportMerge,
    "convert_score": ConvertScore,
    "measure_floor": MeasureFloor,
}


# -- running -----------------------------------------------------------------


def _loop(workload, out: Outcome, seconds: float) -> None:
    """Passes until the next one would end after ``seconds``; at least one.
    An exception ends the loop and counts as a failed operation."""
    start = perf_counter()
    while True:
        t = perf_counter()
        try:
            workload.run_pass(out)
        except Exception:  # the run must still report what it measured
            out.attempted += 1
            out.failed += 1
            out.failures.append(traceback.format_exc())
            return
        last = perf_counter() - t
        if perf_counter() - start + last > seconds:
            return


def run_probes(work: Path, seed: int, sizes: Sizes) -> tuple[list[float], dict[str, float]]:
    """The costs span wrapping cannot see: codec start-up, the codec's own
    kernels in process, one encoder child, and the /bin/true floor. Also
    returns the repetition CV (%) of each of the three measurements."""
    fmt = PlaneFormat(sizes.width, sizes.height, 10)
    clip, stream, recon = work / "probe.yuv", work / "probe.bin", work / "probe_recon.yuv"
    synth.write_smooth_clip(clip, seed, sizes.width, sizes.height, sizes.study_frames)
    source_mb = clip.stat().st_size / 1e6

    startup = measure.measure_process([sys.executable, "-m", "hdrbench.mockcodec", "--help"],
                                      repetitions=5, trim_outliers=False)
    t = perf_counter()
    mockcodec.encode(clip, stream, fmt, qp=22)
    encode_s = perf_counter() - t
    t = perf_counter()
    mockcodec.decode(stream, recon)
    decode_s = perf_counter() - t
    encoder = render_template(MOCK_ENCODE, {
        "{INPUT}": str(clip), "{OUTPUT}": str(stream), "{WIDTH}": str(sizes.width),
        "{HEIGHT}": str(sizes.height), "{BITDEPTH}": "10", "{QP}": "22",
    })
    child = measure.measure_process(encoder, repetitions=3, trim_outliers=False)
    floor = measure.measure_process([TRUE], repetitions=sizes.probe_floor_reps, trim_outliers=False)
    cvs = []
    for result in (startup, child, floor):
        walls = [s.wall_time for s in result.samples]
        cvs.append(statistics.stdev(walls) / statistics.fmean(walls) * 100.0)
    return cvs, {
        "mockcodec.startup_ms": 1000.0 * statistics.median(s.wall_time for s in startup.samples),
        "mockcodec.encode.MBps": source_mb / encode_s,
        "mockcodec.decode.MBps": source_mb / decode_s,
        "mockcodec.encode.child_wall_ms": 1000.0 * statistics.median(s.wall_time for s in child.samples),
        "measure.floor_ms": 1000.0 * statistics.median(s.wall_time for s in floor.samples),
    }


@dataclass
class RunResult:
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float]          # gated: end-to-end or per-layer
    named: dict[str, tuple]            # the workload's own end-to-end figures
    tracer: spans.Tracer | None = None
    samples: dict[str, list[float]] = field(default_factory=dict)  # every timing taken


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 digest_dir: Path, sizes: Sizes = FULL) -> RunResult:
    """Set up ``sizes.setups`` times, then measure for ``seconds``.

    Untraced: the gated end-to-end metrics. Traced: half the time untraced,
    the probes, then half the time with every layer wrapped; the gated
    metrics are the per-layer ones.
    """
    workload = WORKLOADS[name](work, sizes, seed, digest_dir)
    setup_s = []
    for _ in range(sizes.setups):
        t = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - t)

    plain = Outcome()
    _loop(workload, plain, seconds / 2 if trace else seconds)
    if not plain.pass_s:
        return RunResult(plain.attempted, plain.failed, plain.failures, {}, {})
    named = workload.named(plain)
    fastest_pass, fastest_op = workload.fastest(plain)
    named["pass_s_min"] = (fastest_pass, "s", len(plain.pass_s))
    named["setup_s"] = (statistics.median(setup_s), "s", len(setup_s))
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", None)
    named["fail_ratio"] = (plain.failed / plain.attempted, "failed/attempted", plain.attempted)
    if not trace:
        metrics = {
            "setup_s": named["setup_s"][0],
            "op_ms": fastest_op,
            "peak_rss_mb": named["peak_rss_mb"][0],
        }
        return RunResult(plain.attempted, plain.failed, plain.failures, metrics, named,
                         samples={"setup_s": setup_s, "pass_s": plain.pass_s, "op_ms": plain.op_ms,
                                  **plain.samples})

    probe_cvs, metrics = run_probes(work, seed, sizes)
    tracer = spans.Tracer()
    traced = Outcome()
    tracer.install()
    try:
        _loop(workload, traced, seconds / 2)
    finally:
        tracer.uninstall()
    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    failures = plain.failures + traced.failures
    if not traced.pass_s:
        return RunResult(attempted, failed, failures, {}, named, tracer)
    metrics.update(spans.layer_metrics(tracer.stats(), probe_cvs))
    metrics["trace.overhead_pct"] = 100.0 * (workload.fastest(traced)[0] / fastest_pass - 1.0)
    metrics["trace.coverage_pct"] = tracer.coverage(traced.windows)
    return RunResult(attempted, failed, failures, metrics, named, tracer)
