"""Single-process CPU time and energy measurement with repetition.

Energy comes from the powercap sysfs counters (``energy_uj`` and
``max_energy_range_uj`` under one RAPL domain directory); hosts without
them simply get no energy figures. Repetitions run strictly sequentially
behind a process-wide lock, the measured child is pinned to one logical
CPU where the platform allows it, and by default one minimum and one
maximum sample per metric are discarded before averaging. Quiescing the
host is the operator's job; the tool only guarantees sequential execution.
Every child process of the package, timed or not, runs through ``Child``.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence as Seq

from .errors import ExecutionError, ValidationError

DEFAULT_POWERCAP_ROOT = Path("/sys/class/powercap")
DEFAULT_RAPL_DOMAIN = "intel-rapl:0"
MICROJOULES_PER_JOULE = 1_000_000.0
TRIM_MIN_SAMPLES = 4

_MEASUREMENT_LOCK = threading.Lock()


class RaplUnavailableError(Exception):
    """Platform has no readable RAPL counters; energy is omitted, not fatal."""


class CounterParseError(ValidationError):
    """A powercap counter file held something other than an unsigned integer."""


class MeasurementError(ExecutionError):
    """The measured command failed."""


@dataclass(frozen=True)
class EnergyCounterSnapshot:
    """One reading of a monotone (modulo wraparound) microjoule counter."""

    energy_uj: int
    max_range_uj: int

    def __post_init__(self):
        if self.max_range_uj <= 0:
            raise CounterParseError(f"max_range_uj must be positive, got {self.max_range_uj}")
        if not (0 <= self.energy_uj < self.max_range_uj):
            raise CounterParseError(
                f"energy_uj {self.energy_uj} outside [0, {self.max_range_uj})"
            )


@dataclass(frozen=True)
class MeasurementSample:
    """One repetition: wall clock, child user+system CPU time, energy."""

    wall_time: float
    cpu_time: float
    energy_joules: float | None = None

    def __post_init__(self):
        if self.wall_time < 0 or self.cpu_time < 0:
            raise ValidationError("times must be non-negative")
        if self.energy_joules is not None and self.energy_joules < 0:
            raise ValidationError("energy must be non-negative")


@dataclass(frozen=True)
class AggregatedMeasurement:
    samples: tuple[MeasurementSample, ...]
    mean_wall_time: float
    mean_cpu_time: float
    mean_energy_joules: float | None
    retained_count: int
    warnings: tuple[str, ...] = ()


def _read_counter_file(path: Path) -> int:
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise RaplUnavailableError(f"missing counter file {path}") from None
    try:
        value = int(text.strip())
    except ValueError:
        raise CounterParseError(f"{path}: not an integer: {text.strip()!r}") from None
    if value < 0:
        raise CounterParseError(f"{path}: counters are unsigned, got {value}")
    return value


def read_counter(domain_path: str | os.PathLike) -> EnergyCounterSnapshot:
    """Read one RAPL domain directory (energy_uj + max_energy_range_uj)."""
    domain = Path(domain_path)
    if not domain.is_dir():
        raise RaplUnavailableError(f"no powercap domain at {domain}")
    max_range = _read_counter_file(domain / "max_energy_range_uj")
    energy = _read_counter_file(domain / "energy_uj")
    return EnergyCounterSnapshot(energy_uj=energy, max_range_uj=max_range)


def energy_delta(before: EnergyCounterSnapshot, after: EnergyCounterSnapshot) -> float:
    """Counter difference in joules, tolerating at most one wraparound."""
    if before.max_range_uj != after.max_range_uj:
        raise ValidationError(
            f"snapshots from different counters: range {before.max_range_uj} vs {after.max_range_uj}"
        )
    return ((after.energy_uj - before.energy_uj) % before.max_range_uj) / MICROJOULES_PER_JOULE


def _trimmed_mean(values: list[float], trim: bool) -> tuple[float, int]:
    if trim and len(values) >= TRIM_MIN_SAMPLES:
        ordered = sorted(values)[1:-1]  # one min and one max instance
    else:
        ordered = values
    return sum(ordered) / len(ordered), len(ordered)


def aggregate(samples: Seq[MeasurementSample], trim: bool = True) -> AggregatedMeasurement:
    """Mean the samples, discarding one minimum and one maximum per metric
    (independently) once there are at least four repetitions."""
    if not samples:
        raise ValidationError("cannot aggregate zero samples")
    samples = tuple(samples)
    mean_wall, retained = _trimmed_mean([s.wall_time for s in samples], trim)
    mean_cpu, _ = _trimmed_mean([s.cpu_time for s in samples], trim)
    energies = [s.energy_joules for s in samples]
    if any(e is None for e in energies):
        mean_energy = None
    else:
        mean_energy, _ = _trimmed_mean(energies, trim)
    return AggregatedMeasurement(
        samples=samples,
        mean_wall_time=mean_wall,
        mean_cpu_time=mean_cpu,
        mean_energy_joules=mean_energy,
        retained_count=retained,
    )


def _pin_cpu(pid: int) -> str | None:
    if not hasattr(os, "sched_setaffinity"):
        return "cpu pinning unsupported on this platform"
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(pid, {cpu})
    except OSError as exc:
        return f"cpu pinning failed: {exc}"
    return None


class Child:
    """One child process: the one spawn path of the encoder, decoders and metric.

    A new Child opens ``<logs>.stdout.log`` and ``<logs>.stderr.log`` (no
    ``logs``: output is discarded), so a timed caller opens them before its
    clock starts. ``start`` runs ``argv`` on them; ``wait`` reaps it with
    ``os.wait4``. ``close``, and so leaving a ``with`` block, closes the logs
    and kills and reaps a child not yet reaped, whatever was raised.
    """

    def __init__(self, argv: Seq[str], logs: str | os.PathLike | None = None):
        self.argv, self.logs = list(argv), logs
        self._proc: subprocess.Popen | None = None
        self._files = [open(self.log(stream), "wb") for stream in ("stdout", "stderr")] if logs else []

    def log(self, stream: str) -> Path:  # stream: "stdout" or "stderr"
        return Path(f"{self.logs}.{stream}.log")

    def start(self) -> None:
        """Start the command; an ``OSError`` says it could not start."""
        out, err = self._files or (subprocess.DEVNULL, subprocess.DEVNULL)
        self._proc = subprocess.Popen(self.argv, stdout=out, stderr=err)

    def wait(self):
        """Reap the child: its exit code and its ``resource.struct_rusage``."""
        _, status, rusage = os.wait4(self._proc.pid, 0)
        self._proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped; keep Popen consistent
        return self._proc.returncode, rusage

    def close(self) -> None:
        for fh in self._files:
            fh.close()
        if self._proc is not None:
            self._proc.kill()  # a no-op once reaped
            self._proc.wait()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def failure(self, code: int, context: str = "") -> str:
        """``exited <code><context>``, then the last three lines of stderr,
        or of stdout when stderr is empty, joined by `` | ``."""
        texts = (self.log(s).read_text(errors="replace").strip() for s in ("stderr", "stdout"))
        tail = " | ".join(next(filter(None, texts), "").splitlines()[-3:]) if self.logs else ""
        return f"exited {code}{context}: {tail}" if tail else f"exited {code}{context}"


def _run_once(
    argv: Seq[str],
    rapl_domain: Path | None,
    pin: bool,
    logs: str | os.PathLike | None,
    warnings: list[str],
) -> MeasurementSample:
    with Child(argv, logs) as child:
        before = read_counter(rapl_domain) if rapl_domain else None
        start = time.perf_counter()
        try:
            child.start()
        except OSError as exc:
            raise MeasurementError(f"command failed to start: {argv[0]}: {exc}") from exc
        if pin:
            note = _pin_cpu(child._proc.pid)
            if note and note not in warnings:
                warnings.append(note)
        returncode, rusage = child.wait()
        cpu_time = rusage.ru_utime + rusage.ru_stime
        wall_time = time.perf_counter() - start
        after = read_counter(rapl_domain) if rapl_domain else None
    if returncode != 0:
        raise MeasurementError("measured command " + child.failure(returncode, f": {' '.join(argv)}"))
    energy = energy_delta(before, after) if before is not None else None
    return MeasurementSample(wall_time=wall_time, cpu_time=max(cpu_time, 0.0), energy_joules=energy)


def measure_process(
    command: Seq[str],
    repetitions: int = 5,
    rapl_domain: str | os.PathLike | None = None,
    powercap_root: str | os.PathLike | None = None,
    pin_cpu: bool = True,
    trim_outliers: bool = True,
    logs: str | os.PathLike | None = None,
) -> AggregatedMeasurement:
    """Run ``command`` to completion ``repetitions`` times, sequentially.

    Each repetition records the child's user+system CPU time, the wall
    time, and the package-energy delta when RAPL is readable. A nonzero
    exit aborts the measurement with the tail of the child's output. With
    ``logs``, the last repetition's stdout and stderr are left in
    ``<logs>.stdout.log`` and ``<logs>.stderr.log`` (see ``Child``). The
    counters are read under ``powercap_root``/``rapl_domain``; None stands
    for ``DEFAULT_POWERCAP_ROOT`` and ``DEFAULT_RAPL_DOMAIN``.
    """
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if not command:
        raise ValidationError("empty command")
    domain = Path(powercap_root or DEFAULT_POWERCAP_ROOT) / (rapl_domain or DEFAULT_RAPL_DOMAIN)
    warnings: list[str] = []
    try:
        read_counter(domain)
    except RaplUnavailableError as exc:
        warnings.append(f"energy omitted: {exc}")
        domain = None

    samples = []
    with _MEASUREMENT_LOCK:
        for _ in range(repetitions):
            samples.append(_run_once(command, domain, pin_cpu, logs, warnings))
    agg = aggregate(samples, trim=trim_outliers)
    return replace(agg, warnings=tuple(warnings)) if warnings else agg
