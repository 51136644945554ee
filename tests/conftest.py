"""Shared fixtures: synthetic clips, mock-codec command templates and the
quantization-noise sweep of the 10->8 tonemap."""

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from hdrbench import curves
from hdrbench.bitdepth import _tonemap
from hdrbench.yuv import Frame, PlaneFormat

MOCK_ENCODE = (
    f"{sys.executable} -m hdrbench.mockcodec encode --input {{INPUT}} "
    "--output {OUTPUT} --width {WIDTH} --height {HEIGHT} "
    "--bit-depth {BITDEPTH} --qp {QP}"
)
MOCK_DECODE = (
    f"{sys.executable} -m hdrbench.mockcodec decode --input {{INPUT}} "
    "--output {OUTPUT} --output-depth {BITDEPTH}"
)


@pytest.fixture(autouse=True)
def private_host_lock(tmp_path_factory, monkeypatch):
    """Runs and measurements of the tests take the host lock in the session's
    temp dir, so a run elsewhere on the machine and the tests never wait for
    each other. A test that starts ``hdrbench`` processes passes ``TMPDIR``."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path_factory.getbasetemp()))


def make_frame(rng: np.random.Generator, fmt: PlaneFormat) -> Frame:
    """One frame of smooth blocks plus mild noise, clipped to the depth."""

    def plane(height, width):
        base = rng.integers(0, fmt.max_value + 1, size=(4, 4)).astype(np.float64)
        big = np.kron(base, np.ones((height // 4, width // 4)))
        noisy = big + rng.normal(0.0, fmt.max_value / 120.0, size=(height, width))
        return np.clip(noisy, 0, fmt.max_value).astype(fmt.dtype)

    return Frame(
        plane(fmt.height, fmt.width),
        plane(fmt.chroma_height, fmt.chroma_width),
        plane(fmt.chroma_height, fmt.chroma_width),
        fmt,
    )


def make_frames(seed: int, fmt: PlaneFormat, frames: int = 3) -> tuple[Frame, ...]:
    rng = np.random.default_rng(seed)
    return tuple(make_frame(rng, fmt) for _ in range(frames))


def save_frames(path, frames) -> None:
    """Write ``frames`` as one raw file: every plane of every frame, in order."""
    np.concatenate([p.ravel() for f in frames for p in f.planes()]).tofile(path)


def frame_bytes(frames) -> list[bytes]:
    """Each frame's planes as one bytes string: frames compare by their bytes."""
    return [b"".join(p.tobytes() for p in f.planes()) for f in frames]


def write_clip(path, seed: int, fmt: PlaneFormat, frames: int = 3) -> tuple[Frame, ...]:
    """Write ``make_frames(seed, fmt, frames)`` to ``path``; return the frames."""
    clip = make_frames(seed, fmt, frames)
    save_frames(path, clip)
    return clip


def distinct_clip(path, fmt: PlaneFormat, frames: int = 4) -> tuple[tuple[Frame, ...], list[np.ndarray]]:
    """Write a clip whose frames all differ, so that a reused buffer that
    leaks shows; return its frames and each frame's flat samples."""
    clip = write_clip(path, 21, fmt, frames=frames)
    raws = [np.concatenate([p.ravel() for p in f.planes()]) for f in clip]
    assert len({raw.tobytes() for raw in raws}) == frames
    return clip, raws


@pytest.fixture
def fmt10() -> PlaneFormat:
    return PlaneFormat(64, 64, 10)


@pytest.fixture
def fmt8() -> PlaneFormat:
    return PlaneFormat(64, 64, 8)


@pytest.fixture
def clip10_path(tmp_path, fmt10):
    """A three-frame 10-bit clip on disk."""
    path = tmp_path / "clip10.yuv"
    write_clip(path, 11, fmt10)
    return path


@pytest.fixture
def rapl_tree(tmp_path):
    """Minimal powercap sysfs layout with one package domain."""
    domain = tmp_path / "powercap" / "intel-rapl:0"
    domain.mkdir(parents=True)
    (domain / "energy_uj").write_text("500000\n")
    (domain / "max_energy_range_uj").write_text("1000000\n")
    return tmp_path / "powercap"


def deny_reads_of(monkeypatch, denied, after: int) -> None:
    """Make ``Path.read_text`` of ``denied`` raise ``PermissionError`` after ``after`` reads."""
    read_text, reads = Path.read_text, [0]

    def guarded(self, *args, **kwargs):
        if self == denied:
            reads[0] += 1
            if reads[0] > after:
                raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", guarded)


@pytest.fixture
def spawns(monkeypatch):
    """(argv, the spawning thread's CPU mask, which the child inherits) of
    each ``subprocess.Popen`` while the test runs."""
    seen, popen = [], subprocess.Popen

    def spy(argv, *args, **kwargs):
        seen.append((list(argv), os.sched_getaffinity(0)))
        return popen(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", spy)
    return seen


@dataclass(frozen=True)
class NoiseReport:
    """Round-trip error statistics over all 1024 10-bit codes.

    mse_ideal_inverse measures against the real-valued rescale by 1023/255;
    mse_shift_inverse against the << 2 expansion actually used. The shift
    inverse adds a deterministic bias, so it is never the smaller of the two.
    """

    mse_ideal_inverse: float
    mse_shift_inverse: float
    max_abs_error_shift: int


def quantization_noise_report() -> NoiseReport:
    """Sweep all 1024 input codes (uniform weighting) through the shipped
    tonemap kernel and report the noise."""
    codes = np.arange(1024, dtype=np.uint16)
    mapped = np.empty(1024, dtype=np.uint8)
    _tonemap(codes, mapped, np.empty_like(codes))
    mapped = mapped.astype(np.int64)
    err_ideal = codes - (1023.0 / 255.0) * mapped
    err_shift = codes - 4 * mapped
    return NoiseReport(
        mse_ideal_inverse=float(np.mean(err_ideal**2)),
        mse_shift_inverse=float(np.mean(err_shift.astype(np.float64) ** 2)),
        max_abs_error_shift=int(np.max(np.abs(err_shift))),
    )


@pytest.fixture
def spline_fits(monkeypatch):
    """A list that grows by one each time ``curves`` fits an Akima spline."""
    fits = []

    class CountingSpline(curves.AkimaSpline):
        def __init__(self, x, y):
            fits.append(1)
            super().__init__(x, y)

    monkeypatch.setattr(curves, "AkimaSpline", CountingSpline)
    return fits
