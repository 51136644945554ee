"""Single-process CPU time and energy measurement with repetition.

Energy comes from the powercap sysfs counters (``energy_uj`` and
``max_energy_range_uj`` under one RAPL domain directory); hosts without
them simply get no energy figures. Timed children run one at a time inside
a ``timed_phase``, which resolves the RAPL domain and reads its range once
and pins the measuring thread to one logical CPU, so each child runs on
that CPU from its first instruction (a warning says where the platform
refuses); each ``run_child`` reads only ``energy_uj``, once on each side. By
default one minimum and one maximum sample per metric are discarded before
averaging. Quiescing the host is the operator's job.
Every child process of the package, timed or not, runs through ``Child``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence as Seq

from .errors import ExecutionError, ValidationError

DEFAULT_POWERCAP_ROOT = Path("/sys/class/powercap")
DEFAULT_RAPL_DOMAIN = "intel-rapl:0"
MICROJOULES_PER_JOULE = 1_000_000.0
TRIM_MIN_SAMPLES = 4

_MEASUREMENT_LOCK = threading.Lock()


class RaplUnavailableError(ExecutionError):
    """No readable RAPL counter: the phase's probe omits energy, a later read fails."""


class CounterParseError(ValidationError):
    """A powercap counter file held something other than an unsigned integer."""


class MeasurementError(ExecutionError):
    """The measured command failed."""


class MeasurementSample(NamedTuple):
    """One repetition: wall clock, child user+system CPU time, energy."""

    wall_time: float
    cpu_time: float
    energy_joules: float | None = None


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
    except OSError as exc:  # energy_uj is root-only since Linux 5.10
        raise RaplUnavailableError(f"cannot read counter file {path}: {exc.strerror}") from None
    try:
        value = int(text.strip())
    except ValueError:
        raise CounterParseError(f"{path}: not an integer: {text.strip()!r}") from None
    if value < 0:
        raise CounterParseError(f"{path}: counters are unsigned, got {value}")
    return value


def read_counter(domain: Path, max_range_uj: int) -> int:
    """One reading of ``domain``'s ``energy_uj``, refused unless below ``max_range_uj``."""
    energy = _read_counter_file(domain / "energy_uj")
    if energy >= max_range_uj:
        raise CounterParseError(f"energy_uj {energy} outside [0, {max_range_uj})")
    return energy


def energy_delta(before_uj: int, after_uj: int, max_range_uj: int) -> float:
    """Counter difference in joules, tolerating at most one wraparound."""
    return ((after_uj - before_uj) % max_range_uj) / MICROJOULES_PER_JOULE


def _trimmed_mean(values: list[float], trim: bool) -> tuple[float, int]:
    if trim and len(values) >= TRIM_MIN_SAMPLES:
        ordered = sorted(values)[1:-1]  # one min and one max instance
    else:
        ordered = values
    return sum(ordered) / len(ordered), len(ordered)


def aggregate(samples: Seq[MeasurementSample], trim: bool = True, warnings: Seq[str] = ()) -> AggregatedMeasurement:
    """Mean the samples, discarding one minimum and one maximum per metric
    (independently) once there are at least four repetitions; ``warnings``
    are those of the ``timed_phase`` that took them."""
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
        warnings=tuple(warnings),
    )


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


@contextlib.contextmanager
def timed_phase(rapl_domain: str | os.PathLike | None = None, powercap_root: str | os.PathLike | None = None):
    """Hold the measurement lock and pin this thread to ``min(os.sched_getaffinity(0))``,
    so each child ``run_child`` starts inherits the pin; on exit, whatever was
    raised, restore the thread's CPU mask. Yields ``(counter, warnings)``: the
    RAPL directory ``powercap_root``/``rapl_domain`` (None: the defaults) and
    its ``max_energy_range_uj``, read once here, for ``run_child``, or None
    when the counter is unreadable; and the phase's warnings."""
    domain = Path(powercap_root or DEFAULT_POWERCAP_ROOT) / (rapl_domain or DEFAULT_RAPL_DOMAIN)
    counter, warnings = None, []
    try:
        if not domain.is_dir():
            raise RaplUnavailableError(f"no powercap domain at {domain}")
        max_range = _read_counter_file(domain / "max_energy_range_uj")
        if max_range <= 0:
            raise CounterParseError(f"max_range_uj must be positive, got {max_range}")
        read_counter(domain, max_range)
        counter = (domain, max_range)
    except RaplUnavailableError as exc:
        warnings.append(f"energy omitted: {exc}")
    with _MEASUREMENT_LOCK, contextlib.ExitStack() as restore:
        if not hasattr(os, "sched_setaffinity"):
            warnings.append("cpu pinning unsupported on this platform")
        else:
            try:
                mask = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {min(mask)})
                restore.callback(os.sched_setaffinity, 0, mask)
            except OSError as exc:
                warnings.append(f"cpu pinning failed: {exc}")
        yield counter, tuple(warnings)


def run_child(argv: Seq[str], counter: tuple[Path, int] | None, logs: str | os.PathLike | None) -> MeasurementSample:
    """One repetition inside a ``timed_phase``: run ``argv`` to completion
    and take its user+system CPU time, wall time and, with the phase's
    ``counter``, its energy from one ``energy_uj`` read on each side. A
    nonzero exit raises ``MeasurementError`` with the tail of the output left
    in ``<logs>.stdout.log`` and ``<logs>.stderr.log``."""
    with Child(argv, logs) as child:
        before = read_counter(*counter) if counter else None
        start = time.perf_counter()
        try:
            child.start()
        except OSError as exc:
            raise MeasurementError(f"command failed to start: {argv[0]}: {exc}") from exc
        returncode, rusage = child.wait()
        wall_time = time.perf_counter() - start
        after = read_counter(*counter) if counter else None
    if returncode != 0:
        raise MeasurementError("measured command " + child.failure(returncode, f": {' '.join(argv)}"))
    energy = energy_delta(before, after, counter[1]) if counter else None
    return MeasurementSample(wall_time, rusage.ru_utime + rusage.ru_stime, energy)


def measure_process(
    command: Seq[str],
    repetitions: int = 5,
    rapl_domain: str | os.PathLike | None = None,
    powercap_root: str | os.PathLike | None = None,
    trim_outliers: bool = True,
    logs: str | os.PathLike | None = None,
) -> AggregatedMeasurement:
    """Run ``command`` ``repetitions`` times with ``run_child`` in one
    ``timed_phase`` and aggregate the samples. With ``logs``, the last
    repetition's output is left in ``<logs>.stdout.log`` and
    ``<logs>.stderr.log`` (see ``Child``)."""
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if not command:
        raise ValidationError("empty command")
    with timed_phase(rapl_domain, powercap_root) as (counter, warnings):
        samples = [run_child(command, counter, logs) for _ in range(repetitions)]
    return aggregate(samples, trim=trim_outliers, warnings=warnings)
