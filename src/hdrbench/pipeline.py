"""Benchmark execution: plan cells, run codecs, measure, persist results.

One *cell* is (sequence, variant, QP). Executing a cell tonemaps the input
if the variant wants 8-bit, runs the encoder under measurement, decodes,
re-expands 8-bit reconstructions to 10-bit, and scores quality against the
untouched 10-bit source; a cell whose bitstream and decoder command repeat
an earlier cell's of the run takes that cell's scores instead. Records land
in a JSONL store keyed by a content hash so repeated runs reuse finished
cells instead of re-encoding.
"""

from __future__ import annotations

import collections
import contextlib
import datetime
import hashlib
import itertools
import json
import math
import os
import re
import types
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import bitdepth, yuv
from .config import RunConfig, SequenceSpec, VariantConfig, json_fields, read_json, render_template
from .errors import ExecutionError, ValidationError
from .measure import AggregatedMeasurement, Child, aggregate, run_child, timed_phase
# psnr_plane is unused here; perfbench's tracer test reads pipeline.psnr_plane.
from .metrics import QualityRecord, external_metric, psnr_plane, score_files

STORE_SCHEMA = 1
_HASH_CHUNK = 1 << 20


class PipelineError(ExecutionError):
    """A codec invocation failed or produced unusable output."""


class StoreError(ValidationError):
    """Result store file is malformed."""


class StoreConflictError(StoreError):
    """Two records claim the same cell but disagree about the bitstream."""


def to_json_float(value: float | None):
    if value is None:
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _hash_file(digest, path: str | os.PathLike) -> str:
    """Feed a file to ``digest`` in chunks; return the hex digest."""
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def file_sha256(path: str | os.PathLike) -> str:
    return _hash_file(hashlib.sha256(), path)


def _file_signature(path: str) -> tuple[int, int, int] | None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


@dataclass(frozen=True)
class RunRecord:
    """Everything measured and derived for one executed cell."""

    cache_key: str
    sequence: str
    variant: str
    qp: int
    host: str
    width: int
    height: int
    input_depth: int
    internal_depth: int
    frames: int
    frame_rate: float
    bitstream_bytes: int
    bitstream_sha256: str
    wall_time: float
    cpu_time: float
    energy_joules: float | None
    samples: tuple[tuple[float, float, float | None], ...]
    retained_count: int
    quality: QualityRecord
    reported_rate_kbps: float | None = None
    warnings: tuple[str, ...] = ()
    created_at: str = ""

    def __post_init__(self):
        if not (self.frames > 0 and 0 < self.frame_rate < math.inf):
            raise ValueError(f"frames {self.frames!r} and frame_rate {self.frame_rate!r} must be positive")

    @property
    def bitrate_kbps(self) -> float:
        """Bitrate derived from the exact stored byte count (normative)."""
        return self.bitstream_bytes * 8.0 * self.frame_rate / self.frames / 1000.0

    def to_dict(self) -> dict:
        """The store line's JSON object: the schema, then every field in order."""
        return _RECORD_JSON(self, {"schema": STORE_SCHEMA})

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        if data.get("schema") != STORE_SCHEMA:
            raise StoreError(f"unsupported store schema {data.get('schema')!r}")
        return cls(**read_json(_RECORD_FIELDS, data))


def _json_writer(spec: tuple):
    """``lambda obj, out: {**out, key: value, ...}`` by ``json_fields`` ``spec``:
    a nested dataclass's fields at its place, floats through to_json_float.
    Generated, as dataclasses generates ``__init__``: one dict display takes
    about two thirds of the time of a loop over the fields, on every checkpoint."""

    def items(spec, path):
        for name, key, types, nested, _ in spec:
            if types is None:
                yield from items(nested, f"{path}.{name}")
            else:
                yield f"{key!r}: " + (f"to_json_float({path}.{name})" if float in types else f"{path}.{name}")

    return eval(f"lambda obj, out: {{**out, {', '.join(items(spec, 'obj'))}}}", {"to_json_float": to_json_float})


_RECORD_FIELDS = json_fields(RunRecord)
_RECORD_JSON = _json_writer(_RECORD_FIELDS)
_QUALITY_JSON = _json_writer(json_fields(QualityRecord))


def _store_line(record: RunRecord) -> str:
    return json.dumps(record.to_dict()) + "\n"


class ResultStore:
    """JSONL-backed collection of run records, one JSON object per line.

    Records are only ever added; ``records`` is a read-only view, and a
    store without some of them is a new store from a filtered copy. ``save``
    appends the records added since this store last loaded or wrote the
    same file, when the file is as this store left it (same inode, size and
    mtime): one ``os.write`` of the new lines, on a descriptor opened without
    ``O_CREAT``, so a store removed after that check is rewritten whole. New
    keys sit last in ``records``, so the file ends up as a full rewrite would
    leave it; lines already in it are not serialised again. Otherwise
    ``save`` rewrites the whole file through a unique temporary file and
    ``os.replace``. ``load`` drops a last line that a crash cut short. There
    is no lock: of two concurrent writers the last full rewrite wins, and a
    rewrite in place to the same size within one mtime tick goes unnoticed.
    """

    def __init__(self, records: dict[str, RunRecord] | None = None):
        self._records: dict[str, RunRecord] = dict(records or {})
        self.records = types.MappingProxyType(self._records)
        # What this store's last load or save left on disk: (absolute path,
        # (st_ino, st_size, st_mtime_ns), records in the file), or None when
        # the next save must rewrite.
        self._synced: tuple[str, tuple[int, int, int], int] | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, cache_key: str) -> bool:
        return cache_key in self.records

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ResultStore":
        """Read a store; a missing file is an empty store.

        Of several lines with one key the last wins. A last line without
        its newline that does not parse is the torn tail of an interrupted
        append and is dropped. A store read from a file that does not end
        in a newline, or that repeats a key, rewrites it on its next save.
        """
        store = cls()
        path = Path(path)
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return store
        with fh:
            data = fh.read()
            st = os.fstat(fh.fileno())
        try:
            lines = data.decode().split("\n")
        except UnicodeDecodeError as exc:  # save writes ASCII: not even a torn tail
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise StoreError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines):
                    break  # no newline after it: the torn tail of an append
                raise StoreError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                record = RunRecord.from_dict(record)
            except (ValidationError, AttributeError, KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"{path}:{lineno}: not a run record: {exc!r}") from exc
            store._records[record.cache_key] = record
        # Appendable only if every newline-terminated line is one distinct
        # record and nothing follows the last newline.
        if lines[-1] == "" and len(lines) - 1 == len(store):
            store._mark_synced(os.path.abspath(path), st, len(data))
        return store

    def add(self, record: RunRecord) -> None:
        """Insert a new key's record; a known key keeps its first, if the digests agree."""
        existing = self.records.get(record.cache_key)
        if existing is None:
            self._records[record.cache_key] = record
        elif existing.bitstream_sha256 != record.bitstream_sha256:
            raise StoreConflictError(
                f"cell {record.sequence}/{record.variant}/qp{record.qp}: "
                f"conflicting bitstream digests "
                f"{existing.bitstream_sha256[:12]} vs {record.bitstream_sha256[:12]}"
            )

    def merge(self, other: "ResultStore") -> None:
        """Fold another store in; same-key records must agree on the bitstream."""
        for record in other.records.values():
            self.add(record)

    def save(self, path: str | os.PathLike) -> None:
        """Write the store to ``path``: append the new records, or rewrite."""
        where = os.path.abspath(path)
        synced = self._synced
        if synced is not None and synced[:2] == (where, _file_signature(where)):
            _, (_, size, _), persisted = synced
            self._append(where, persisted, size)
        else:
            self._rewrite(where)

    def _append(self, where: str, persisted: int, size: int) -> None:
        # Serialise first, so a record that fails to serialise leaves the
        # file untouched, then write it in one call. The new records are the
        # newest keys: walk back from the end, not past every saved one.
        newest_first = itertools.islice(reversed(self._records.values()), len(self._records) - persisted)
        data = "".join(reversed([_store_line(record) for record in newest_first])).encode()
        try:  # no O_CREAT: a store removed since the check is rewritten whole
            fd = os.open(where, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:
            self._rewrite(where)
            return
        try:
            yuv.write_all(fd, data)
            st = os.fstat(fd)
        finally:
            os.close(fd)
        self._mark_synced(where, st, size + len(data))

    def _rewrite(self, where: str) -> None:
        path = Path(where)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A new file of a name no other writer uses: the umask sets its mode,
        # as for any file open creates.
        tmp = path.parent / f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        fh = open(tmp, "x")
        try:
            with fh:
                fh.writelines(map(_store_line, self.records.values()))
                fh.flush()
                st = os.fstat(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._mark_synced(where, st, st.st_size)

    def _mark_synced(self, where: str, st: os.stat_result, size: int) -> None:
        """Record the file state this store's own read or write of ``where`` left.

        ``size`` is the size that read or write accounts for; a file of
        another size was also written by someone else, so it is not synced.
        """
        self._synced = None
        if st.st_size == size:
            signature = (st.st_ino, st.st_size, st.st_mtime_ns)
            self._synced = (where, signature, len(self.records))


@dataclass(frozen=True)
class PlanCell:
    sequence: SequenceSpec
    variant: VariantConfig
    qp: int
    cache_key: str


@dataclass(frozen=True)
class _EncodedCell:
    """A cell whose timed encode is done: what decoding and scoring it need."""

    cell: PlanCell
    where: str  # sequence/variant/qpQP, for messages
    cell_dir: Path
    bitstream: Path
    recon: Path
    measurement: AggregatedMeasurement


def cell_cache_key(
    sequence_digest: str, variant: VariantConfig, qp: int, host: str
) -> str:
    """Content hash identifying a cell's measurement context.

    The host label is part of the key on purpose: time and energy numbers
    from one machine must never satisfy a cache lookup on another.
    """
    payload = json.dumps(
        {
            "schema": STORE_SCHEMA,
            "source": sequence_digest,
            "variant": [getattr(variant, f.name) for f in fields(variant)],
            "qp": qp,
            "host": host,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class Runner:
    """Plans and executes all cells of a run configuration.

    The runner loads its store from ``config.store_path`` and checkpoints
    into the same file; a run on another store is a config with another
    ``store_path``, as ``hdrbench run --store`` makes it.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.store = ResultStore.load(config.store_path)
        self.encoder_invocations = 0
        self.decoder_invocations = 0
        self.executed_cells = 0
        self.reused_cells = 0
        self._sequence_digests: dict[str, str] = {}
        self._prepared_inputs: dict[tuple[str, int], Path] = {}
        # The quality of each decode this run scored, by its _decode_key.
        self._scored: dict[tuple, QualityRecord] = {}

    # -- planning ----------------------------------------------------------

    def sequence_digest(self, spec: SequenceSpec) -> str:
        cached = self._sequence_digests.get(spec.name)
        if cached is None:
            tag = f"{spec.fmt.width}x{spec.fmt.height}@{spec.fmt.bit_depth}:"
            cached = _hash_file(hashlib.sha256(tag.encode()), spec.path)
            self._sequence_digests[spec.name] = cached
        return cached

    def plan(self) -> list[PlanCell]:
        """Validate inputs and lay out cells: highest QP (fastest) first."""
        cells = []
        for spec in self.config.sequences:
            if not Path(spec.path).is_file():
                raise ValidationError(f"sequence {spec.name}: file not found: {spec.path}")
            if spec.fmt.bit_depth != 10:
                raise ValidationError(
                    f"sequence {spec.name}: source must be 10-bit, got {spec.fmt.bit_depth}-bit"
                )
            if yuv.frame_count(spec.path, spec.fmt) < 1:
                raise ValidationError(f"sequence {spec.name}: no complete frames in {spec.path}")
            digest = self.sequence_digest(spec)
            for variant in self.config.variants:
                for qp in sorted(self.config.qp_ladder, reverse=True):
                    cells.append(
                        PlanCell(spec, variant, qp, cell_cache_key(digest, variant, qp, self.config.host_label))
                    )
        return cells

    # -- execution ---------------------------------------------------------

    def _prepare_input(self, spec: SequenceSpec, depth: int) -> Path:
        """Return the path of the encoder input at the requested bit depth.

        The 8-bit tonemapped rendition is produced once per sequence and
        shared by every 8-bit variant and QP.
        """
        if depth == 10:
            return Path(spec.path)
        cached = self._prepared_inputs.get((spec.name, depth))
        if cached is not None:
            return cached
        out_dir = self.config.work_dir / "inputs"
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"{spec.name}_{depth}bit.yuv"
        bitdepth.convert_file(spec.path, out_path, spec.fmt)
        self._prepared_inputs[(spec.name, depth)] = out_path
        return out_path

    def _substitutions(self, spec: SequenceSpec, path_in, path_out, qp: int, depth: int) -> dict:
        return {
            "{INPUT}": str(path_in),
            "{OUTPUT}": str(path_out),
            "{QP}": str(qp),
            "{WIDTH}": str(spec.fmt.width),
            "{HEIGHT}": str(spec.fmt.height),
            "{BITDEPTH}": str(depth),
            "{FPS}": format(spec.frame_rate, "g"),
        }

    def _parse_reported_rate(self, *log_paths: Path) -> float | None:
        pattern = self.config.reported_rate_regex
        if not pattern:
            return None
        for log_path in log_paths:
            try:
                text = log_path.read_text()
            except OSError:
                continue
            match = re.search(pattern, text)
            if match:
                try:
                    return float(match.group(1) if match.groups() else match.group(0))
                except (TypeError, ValueError):  # TypeError: group 1 took no part
                    return None
        return None

    def _encode(self, cells: list[PlanCell]) -> list[_EncodedCell]:
        """The timed half of cells, in order. First, outside the timed phase,
        so that ``convert_file`` gets every CPU, prepare each one's input,
        clear its directory and render its encoder command. Then one
        ``timed_phase`` (the RAPL domain resolved once, this thread pinned to
        one CPU, which each encoder inherits) times each repetition in turn."""
        config = self.config
        jobs = []
        for cell in cells:
            spec, variant, qp = cell.sequence, cell.variant, cell.qp
            in_path = self._prepare_input(spec, variant.input_depth)
            cell_dir = config.work_dir / spec.name / variant.name / f"qp{qp:02d}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            # No output of an earlier run may pass for this run's: not the file of
            # a codec that exits 0 without writing, nor the decode and metric
            # outputs of a cell that now reuses another cell's decode.
            for pattern in ("bitstream.bin", "recon_*bit.yuv", "decoder.*.log", "metric.*.log"):
                for stale in cell_dir.glob(pattern):
                    stale.unlink(missing_ok=True)
            substitutions = self._substitutions(spec, in_path, cell_dir / "bitstream.bin", qp, variant.input_depth)
            jobs.append((cell, cell_dir, render_template(variant.encoder_template, substitutions)))

        encoded = []
        with timed_phase(config.rapl_domain, config.powercap_root) as (domain, warnings):
            for cell, cell_dir, argv in jobs:
                samples = [run_child(argv, domain, cell_dir / "encoder") for _ in range(config.repetitions)]
                self.encoder_invocations += config.repetitions
                where = f"{cell.sequence.name}/{cell.variant.name}/qp{cell.qp}"
                bitstream = cell_dir / "bitstream.bin"
                if not bitstream.is_file() or bitstream.stat().st_size == 0:
                    raise PipelineError(f"encoder produced no bitstream for {where}")
                recon = cell_dir / f"recon_{cell.variant.internal_depth}bit.yuv"
                measurement = aggregate(samples, warnings=warnings)
                encoded.append(_EncodedCell(cell, where, cell_dir, bitstream, recon, measurement))
        return encoded

    def _start_decoder(self, encoded: _EncodedCell) -> Child:
        cell = encoded.cell
        dec_argv = render_template(
            cell.variant.decoder_template,
            self._substitutions(
                cell.sequence, encoded.bitstream, encoded.recon, cell.qp, cell.variant.internal_depth
            ),
        )
        decoder = Child(dec_argv, encoded.cell_dir / "decoder")
        try:
            decoder.start()
        except OSError as exc:
            decoder.close()
            raise PipelineError(f"decoder failed to start for {encoded.where}: {exc}") from exc
        self.decoder_invocations += 1
        return decoder

    def _decode_key(self, encoded: _EncodedCell, digest: str) -> tuple:
        """What a cell's reconstruction and scores follow from: its sequence,
        internal depth, decoder command (paths left as placeholders) and
        bitstream digest."""
        cell = encoded.cell
        depth = cell.variant.internal_depth
        argv = render_template(
            cell.variant.decoder_template,
            self._substitutions(cell.sequence, "{INPUT}", "{OUTPUT}", cell.qp, depth),
        )
        return cell.sequence.name, depth, tuple(argv), digest

    def _decode_and_score(self, encoded: list[_EncodedCell]):
        """The untimed half of encoded cells: yield their records in order.

        Each bitstream is hashed before its decoder would start. One decoder
        runs per distinct bitstream and decoder command: a cell whose
        ``_decode_key`` an earlier cell of this run decoded starts no decoder
        and no external metric, and its record takes that cell's quality.
        So ``8-8-nosimd``, whose bitstreams are ``8-8``'s, reuses its twin's
        scores when the twin was decoded in this run; a cached twin's record
        holds no decoder command to match. Up to one decoder per CPU runs
        ahead of the cell being scored; hashing and scoring stay on this
        thread. Closing the generator early (the caller stopped, or anything
        raised) kills and reaps every decoder still running, so none
        outlives it into a timed encode.
        """
        running: collections.deque[tuple[_EncodedCell, str, tuple, Child | None]] = collections.deque()
        waiting = iter(encoded)
        started = set()  # the keys of the decoders this call started

        def start(count: int) -> None:
            """Hash waiting cells until ``count`` more decoders run or none wait."""
            while count:
                item = next(waiting, None)
                if item is None:
                    return
                digest = file_sha256(item.bitstream)
                key = self._decode_key(item, digest)
                decoder = None
                if key not in self._scored and key not in started:
                    started.add(key)
                    decoder = self._start_decoder(item)
                    count -= 1
                running.append((item, digest, key, decoder))

        try:
            start(yuv.usable_cpus())
            for _ in encoded:
                item, digest, key, decoder = running.popleft()
                if decoder is not None:
                    with decoder:
                        returncode, _ = decoder.wait()
                    if returncode != 0:
                        raise PipelineError("decoder " + decoder.failure(returncode, f" for {item.where}"))
                    start(1)
                    self._scored[key] = self._score(item)
                yield self._record(item, digest, self._scored[key])
        finally:
            for _, _, _, decoder in running:
                if decoder is not None:
                    decoder.close()

    def _score(self, encoded: _EncodedCell) -> QualityRecord:
        """Check a decoded cell's reconstruction and score it at 10-bit.

        PSNR is taken against the source. Only an external metric, which
        reads files, gets an 8-bit reconstruction written out expanded, as
        ``recon_10bit.yuv``.
        """
        spec, where, recon = encoded.cell.sequence, encoded.where, encoded.recon
        if not recon.is_file():
            raise PipelineError(f"decoder produced no reconstruction for {where}")
        source_frames = yuv.frame_count(spec.path, spec.fmt)
        recon_fmt = spec.fmt.with_bit_depth(encoded.cell.variant.internal_depth)
        recon_frames = yuv.frame_count(recon, recon_fmt)
        if recon_frames != source_frames:
            raise PipelineError(
                f"decoder returned {recon_frames} frames, source has {source_frames} ({where})"
            )
        quality = score_files(spec.path, recon, recon_fmt)
        if self.config.metric_command:
            recon10 = recon
            if recon_fmt.bit_depth == 8:
                recon10 = encoded.cell_dir / "recon_10bit.yuv"
                bitdepth.convert_file(recon, recon10, recon_fmt)
            score = external_metric(spec.path, recon10, self.config.metric_command, encoded.cell_dir / "metric")
            quality = replace(quality, external_score=score)
        return quality

    def _record(self, encoded: _EncodedCell, digest: str, quality: QualityRecord) -> RunRecord:
        """A scored cell's record: its own measurement, bitstream and logs, and ``quality``."""
        config = self.config
        cell, cell_dir, measurement = encoded.cell, encoded.cell_dir, encoded.measurement
        spec, variant, qp = cell.sequence, cell.variant, cell.qp
        reported = self._parse_reported_rate(cell_dir / "encoder.stderr.log", cell_dir / "encoder.stdout.log")
        record = RunRecord(
            cache_key=cell.cache_key,
            sequence=spec.name,
            variant=variant.name,
            qp=qp,
            host=config.host_label,
            width=spec.fmt.width,
            height=spec.fmt.height,
            input_depth=variant.input_depth,
            internal_depth=variant.internal_depth,
            frames=yuv.frame_count(spec.path, spec.fmt),
            frame_rate=spec.frame_rate,
            bitstream_bytes=encoded.bitstream.stat().st_size,
            bitstream_sha256=digest,
            wall_time=measurement.mean_wall_time,
            cpu_time=measurement.mean_cpu_time,
            energy_joules=measurement.mean_energy_joules,
            samples=tuple(
                (s.wall_time, s.cpu_time, s.energy_joules) for s in measurement.samples
            ),
            retained_count=measurement.retained_count,
            quality=quality,
            reported_rate_kbps=reported,
            warnings=measurement.warnings,
            created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        )
        if reported is not None:
            derived = record.bitrate_kbps
            if derived > 0 and abs(reported - derived) / derived > 0.1:
                record = replace(
                    record,
                    warnings=record.warnings
                    + (
                        f"encoder-reported rate {reported:.3f} kbps deviates from "
                        f"derived {derived:.3f} kbps",
                    ),
                )
        return record

    def run(self, progress=None) -> ResultStore:
        """Execute every planned cell; a cell with a stored record is reused
        unless the config's ``cache`` is ``"fresh"``.

        Cells run in groups: the consecutive planned cells of one (sequence,
        variant), one QP ladder. First the group's uncached cells are encoded
        and timed in one ``timed_phase``, which pins this thread to one CPU
        (see ``_encode``), with no other child of this process alive. Then
        their bitstreams are hashed and their decoders run, up to one per CPU,
        while this thread walks the group in plan order: it checks and scores
        each decoded cell, and checkpoints its record by appending it to the
        store file (see ``ResultStore.save``). One decoder runs per distinct
        bitstream and decoder command of the run: a cell that repeats an
        earlier decoded cell's (see ``_decode_and_score``) takes that cell's
        quality, so ``8-8-nosimd`` reuses ``8-8``'s decodes. So ``progress``
        calls arrive in bursts after each group's encodes, and an interrupted
        run loses the measured but not yet checkpointed encodes of one group,
        up to one QP ladder. Any exception kills and reaps the group's
        decoders before it propagates; the records checkpointed before it
        stay. A crash during an append can leave a torn last line; the next
        load drops it, so a resumed run measures that cell again.

        A fresh run first drops the planned cells' records: its first
        checkpoint rewrites the file, later ones append. Stopped early, it
        leaves the cells it did not reach for the next run to measure.
        """
        cells = self.plan()
        if self.config.cache == "fresh":
            planned = {cell.cache_key for cell in cells}
            self.store = ResultStore({k: r for k, r in self.store.records.items() if k not in planned})
        numbered = enumerate(cells, start=1)
        for _, group in itertools.groupby(numbered, key=lambda item: (item[1].sequence.name, item[1].variant.name)):
            group = list(group)
            encoded = self._encode([cell for _, cell in group if cell.cache_key not in self.store])
            with contextlib.closing(self._decode_and_score(encoded)) as records:
                for index, cell in group:
                    if cell.cache_key in self.store:
                        self.reused_cells += 1
                        if progress:
                            progress(index, len(cells), cell, "cached")
                        continue
                    self.store.add(next(records))
                    self.store.save(self.config.store_path)
                    self.executed_cells += 1
                    if progress:
                        progress(index, len(cells), cell, "measured")
        return self.store
