"""Benchmark execution: plan cells, run codecs, measure, score.

One *cell* is (sequence, variant, QP). The plan checks each source, sample
range included, and gives each cell its encoder input, the source or the
sequence's tone-mapped 8-bit rendition, which the run writes and syncs
before its first timed encode, and the source's frame count. Executing a
cell empties its directory, runs the encoder under measurement, decodes,
and scores the reconstruction, which ``score_files`` checks, against the
untouched 10-bit source; a cell whose bitstream and decoder command repeat
an earlier cell's of the run takes that cell's scores instead. Each cell's
record is checkpointed into the run's result store (see ``store``), whose
records let a repeated run reuse finished cells instead of re-encoding.
"""

from __future__ import annotations

import collections
import contextlib
import datetime
import hashlib
import itertools
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from . import bitdepth, yuv
from .config import RunConfig, SequenceSpec, VariantConfig, render_template
from .errors import ExecutionError, ValidationError
from .measure import AggregatedMeasurement, Child, aggregate, run_child, timed_phase
# psnr_plane is unused here; perfbench's tracer test reads pipeline.psnr_plane.
from .metrics import QualityRecord, external_metric, psnr_plane, score_files
from .store import ResultStore, RunRecord, cell_cache_key

_HASH_CHUNK = 1 << 20


class PipelineError(ExecutionError):
    """A codec invocation failed or produced unusable output."""


def file_sha256(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class PlanCell:
    sequence: SequenceSpec
    variant: VariantConfig
    qp: int
    cache_key: str
    cell_dir: Path
    source: Path  # the encoder's input: the sequence, or its 8-bit rendition
    frames: int  # whole frames in the sequence

    @property
    def where(self) -> str:
        """sequence/variant/qpQP, for messages."""
        return f"{self.sequence.name}/{self.variant.name}/qp{self.qp}"

    @property
    def bitstream(self) -> Path:
        return self.cell_dir / "bitstream.bin"

    @property
    def recon(self) -> Path:
        return self.cell_dir / f"recon_{self.variant.internal_depth}bit.yuv"


def _command(template: str, cell: PlanCell, path_in, path_out, depth: int) -> list[str]:
    """A codec command of ``cell``: ``template`` with its placeholders filled."""
    spec = cell.sequence
    return render_template(template, {
        "{INPUT}": str(path_in),
        "{OUTPUT}": str(path_out),
        "{QP}": str(cell.qp),
        "{WIDTH}": str(spec.fmt.width),
        "{HEIGHT}": str(spec.fmt.height),
        "{BITDEPTH}": str(depth),
        "{FPS}": format(spec.frame_rate, "g"),
    })


class Runner:
    """Plans and executes all cells of a run configuration.

    The runner loads its store from ``config.store_path`` and checkpoints
    into the same file; a run on another store is a config with another
    ``store_path``.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.store = ResultStore.load(config.store_path)
        self.encoder_invocations = 0
        self.decoder_invocations = 0
        self.executed_cells = 0
        self.reused_cells = 0
        # The quality of each decode this run scored, by its decode key (see _decode_and_score).
        self._scored: dict[tuple, QualityRecord] = {}

    # -- planning ----------------------------------------------------------

    def sequence_digest(self, spec: SequenceSpec) -> str:
        """sha256 of the format tag and the source, streamed through
        ``read_pieces``: a sample out of range raises here, before any encode.
        Each call reads the whole source; ``plan`` calls it once per sequence."""
        digest = hashlib.sha256(f"{spec.fmt.width}x{spec.fmt.height}@{spec.fmt.bit_depth}:".encode())
        for _, _, piece in yuv.read_pieces(spec.path, spec.fmt):
            digest.update(piece)
        return digest.hexdigest()

    def plan(self) -> list[PlanCell]:
        """Check each source (see ``sequence_digest``) and lay out cells: highest QP (fastest) first."""
        cells = []
        for spec in self.config.sequences:
            if not Path(spec.path).is_file():
                raise ValidationError(f"sequence {spec.name}: file not found: {spec.path}")
            frames = yuv.frame_count(spec.path, spec.fmt)
            if frames < 1:
                raise ValidationError(f"sequence {spec.name}: no complete frames in {spec.path}")
            digest = self.sequence_digest(spec)
            tonemapped = self.config.work_dir / "inputs" / f"{spec.name}_8bit.yuv"
            for variant in self.config.variants:
                source = tonemapped if variant.input_depth == 8 else Path(spec.path)
                for qp in sorted(self.config.qp_ladder, reverse=True):
                    key = cell_cache_key(digest, variant, qp, self.config.host_label)
                    cell_dir = self.config.work_dir / spec.name / variant.name / f"qp{qp:02d}"
                    cells.append(PlanCell(spec, variant, qp, key, cell_dir, source, frames))
        return cells

    # -- execution ---------------------------------------------------------

    def _encode(self, cells: list[PlanCell]) -> list[tuple[PlanCell, AggregatedMeasurement]]:
        """The timed half of cells, in order. First, outside the timed phase,
        empty each cell's directory and render its encoder command; each
        cell's input is already written (see ``run``). Then one
        ``timed_phase`` (the RAPL domain resolved and its range read once,
        this thread pinned to one CPU, which each encoder inherits) times each
        repetition in turn, reading ``energy_uj`` before and after each."""
        config = self.config
        jobs = []
        for cell in cells:
            # No output of an earlier run may pass for this run's: not the file of
            # a codec that exits 0 without writing, nor the decode and metric
            # outputs of a cell that now reuses another cell's decode.
            with contextlib.suppress(FileNotFoundError):
                shutil.rmtree(cell.cell_dir)
            cell.cell_dir.mkdir(parents=True)
            depth = cell.variant.input_depth
            jobs.append((cell, _command(cell.variant.encoder_template, cell, cell.source, cell.bitstream, depth)))

        encoded = []
        with timed_phase(config.rapl_domain, config.powercap_root) as (counter, warnings):
            for cell, argv in jobs:
                samples = [run_child(argv, counter, cell.cell_dir / "encoder") for _ in range(config.repetitions)]
                self.encoder_invocations += config.repetitions
                if not cell.bitstream.is_file() or cell.bitstream.stat().st_size == 0:
                    raise PipelineError(f"encoder produced no bitstream for {cell.where}")
                encoded.append((cell, aggregate(samples, warnings=warnings)))
        return encoded

    def _decode_and_score(self, encoded: list[tuple[PlanCell, AggregatedMeasurement]]):
        """The untimed half of encoded cells: yield their records in order.

        Each bitstream is hashed before its decoder would start. One decoder
        runs per distinct decode key: the sequence, internal depth, decoder
        command (paths left as placeholders) and bitstream digest, which a
        cell's reconstruction and scores follow from. A cell whose key an
        earlier cell of this run decoded starts no decoder and no external
        metric, and its record takes that cell's quality. So ``8-8-nosimd``,
        whose bitstreams are ``8-8``'s, reuses its twin's scores when the
        twin was decoded in this run; a cached twin's record holds no decoder
        command to match. Up to one decoder per CPU runs ahead of the cell
        being scored; hashing and scoring stay on this thread. Closing the
        generator early (the caller stopped, or anything raised) kills and
        reaps every decoder still running, so none outlives it into a timed
        encode.
        """
        running = collections.deque()  # (cell, measurement, digest, decode key, decoder or None)
        waiting = iter(encoded)
        started = set()  # the keys of the decoders this call started

        def start(count: int) -> None:
            """Hash waiting cells until ``count`` more decoders run or none wait."""
            while count:
                cell, measurement = next(waiting, (None, None))
                if cell is None:
                    return
                digest = file_sha256(cell.bitstream)
                depth, template = cell.variant.internal_depth, cell.variant.decoder_template
                placeholders = _command(template, cell, "{INPUT}", "{OUTPUT}", depth)
                key = (cell.sequence.name, depth, tuple(placeholders), digest)
                decoder = None
                if key not in self._scored and key not in started:
                    started.add(key)
                    argv = _command(template, cell, cell.bitstream, cell.recon, depth)
                    decoder = Child(argv, cell.cell_dir / "decoder")
                    try:
                        decoder.start()
                    except OSError as exc:
                        decoder.close()
                        raise PipelineError(f"decoder failed to start for {cell.where}: {exc}") from exc
                    self.decoder_invocations += 1
                    count -= 1
                running.append((cell, measurement, digest, key, decoder))

        try:
            start(yuv.usable_cpus())
            for _ in encoded:
                cell, measurement, digest, key, decoder = running.popleft()
                if decoder is not None:
                    with decoder:
                        returncode, _ = decoder.wait()
                    if returncode != 0:
                        raise PipelineError("decoder " + decoder.failure(returncode, f" for {cell.where}"))
                    start(1)
                    self._scored[key] = self._score(cell)
                yield self._record(cell, measurement, digest, self._scored[key])
        finally:
            for *_, decoder in running:
                if decoder is not None:
                    decoder.close()

    def _score(self, cell: PlanCell) -> QualityRecord:
        """Score a decoded cell's reconstruction against the source at 10-bit.

        ``score_files`` checks the reconstruction; the source passed the same
        checks at plan time, so its ``ValidationError`` is a ``PipelineError``
        naming the cell. Only an external metric, which reads files, gets an
        8-bit reconstruction written out expanded, as ``recon_10bit.yuv``.
        """
        spec, recon = cell.sequence, cell.recon
        recon_fmt = spec.fmt.with_bit_depth(cell.variant.internal_depth)
        try:
            quality = score_files(spec.path, recon, recon_fmt)
        except ValidationError as exc:
            raise PipelineError(f"unusable reconstruction for {cell.where}: {exc}") from exc
        if self.config.metric_command:
            recon10 = recon
            if recon_fmt.bit_depth == 8:
                recon10 = cell.cell_dir / "recon_10bit.yuv"
                bitdepth.convert_file(recon, recon10, recon_fmt)
            score = external_metric(spec.path, recon10, self.config.metric_command, cell.cell_dir / "metric")
            quality = replace(quality, external_score=score)
        return quality

    def _record(
        self, cell: PlanCell, measurement: AggregatedMeasurement, digest: str, quality: QualityRecord
    ) -> RunRecord:
        """A scored cell's record: its own measurement and bitstream, and ``quality``."""
        spec, variant = cell.sequence, cell.variant
        return RunRecord(
            cache_key=cell.cache_key,
            sequence=spec.name,
            variant=variant.name,
            qp=cell.qp,
            host=self.config.host_label,
            width=spec.fmt.width,
            height=spec.fmt.height,
            input_depth=variant.input_depth,
            internal_depth=variant.internal_depth,
            frames=cell.frames,
            frame_rate=spec.frame_rate,
            bitstream_bytes=cell.bitstream.stat().st_size,
            bitstream_sha256=digest,
            wall_time=measurement.mean_wall_time,
            cpu_time=measurement.mean_cpu_time,
            energy_joules=measurement.mean_energy_joules,
            samples=measurement.samples,
            retained_count=measurement.retained_count,
            quality=quality,
            warnings=measurement.warnings,
            created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        )

    def run(self, progress=None) -> ResultStore:
        """Execute every planned cell; a cell with a stored record is reused
        unless the config's ``cache`` is ``"fresh"``.

        Cells run in groups: the consecutive planned cells of one (sequence,
        variant), one QP ladder. First the group's uncached cells are encoded
        and timed in one ``timed_phase``, which pins this thread to one CPU
        (see ``_encode``), with no other child of this process alive; a
        fully cached group opens none. Then their bitstreams are hashed and
        their decoders run, up to one per CPU, while this thread walks the
        group in plan order: it checks and scores each decoded cell, and
        checkpoints its record by appending it to the store file (see
        ``ResultStore.save``). One decoder runs per distinct
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

        Before the first timed phase, the run writes each 8-bit rendition
        that an uncached cell encodes and syncs it, so that no write-back
        of it falls inside a timed encode.
        """
        cells = self.plan()
        if self.config.cache == "fresh":
            planned = {cell.cache_key for cell in cells}
            self.store = ResultStore({k: r for k, r in self.store.records.items() if k not in planned})
        renditions = {cell.source: cell.sequence for cell in cells
                      if cell.variant.input_depth == 8 and cell.cache_key not in self.store}
        for rendition, spec in renditions.items():
            rendition.parent.mkdir(parents=True, exist_ok=True)
            bitdepth.convert_file(spec.path, rendition, spec.fmt)
            with open(rendition, "rb") as fh:
                os.fsync(fh.fileno())
        numbered = enumerate(cells, start=1)
        for _, group in itertools.groupby(numbered, key=lambda item: (item[1].sequence.name, item[1].variant.name)):
            group = list(group)
            uncached = [cell for _, cell in group if cell.cache_key not in self.store]
            # A fully cached group opens no timed phase; its generator below never starts.
            encoded = self._encode(uncached) if uncached else []
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
