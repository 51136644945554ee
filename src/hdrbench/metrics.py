"""Full-reference quality of a decoded output against its 10-bit source.

PSNR is computed per color component and combined with luma-weighted
averaging: (6 * Y + U + V) / 8. Each plane's squared error is summed
exactly in integers, so the MSE is the correctly rounded SSE / n and no
plane is copied to float64. ``score_files`` splits the frames into one
span per usable CPU (``yuv.run_spans``); each span streams both files
through ``yuv.read_pieces`` in lockstep and sums each plane's SSE piece by
piece: the difference of the ``int16`` views is squared into an ``int32``
buffer of the span's own, rows of 1024 squares are summed in ``uint32`` and
the rows in ``uint64``. The spans' per-frame PSNRs are joined in frame
order, so the means add them in the same order at any span count. Every
span thread is joined before ``score_files`` returns, and no BLAS call is
made, so no thread is left running beside the codecs that hdrbench times.
Identical planes yield an infinite PSNR, represented by the float('inf')
sentinel; it propagates through averaging and the weighted combination,
and curve fitting rejects it downstream.

An external perceptual metric (e.g. HDR-VDP) is supported only through a
command adapter: a template with {REF} and {TEST} placeholders whose
process prints a single decimal score in [0, 10] on stdout.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import yuv
from .bitdepth import expand_plane
from .config import render_template
from .errors import ExecutionError, ValidationError
from .measure import Child
from .yuv import PlaneFormat

INFINITE_PSNR = float("inf")

SCORE_MIN = 0.0
SCORE_MAX = 10.0


class PlaneMismatchError(ValidationError):
    """Compared planes or files disagree in shape, depth, or length."""


class ExternalMetricError(ExecutionError):
    """External metric process failed or produced an unusable score."""


@dataclass(frozen=True)
class QualityRecord:
    psnr_y: float
    psnr_u: float
    psnr_v: float
    psnr_yuv: float
    external_score: float | None = None

    def __post_init__(self):
        if self.external_score is not None and not (
            SCORE_MIN <= self.external_score <= SCORE_MAX
        ):
            raise ValidationError(
                f"external score {self.external_score} outside [{SCORE_MIN}, {SCORE_MAX}]"
            )


# Squares of samples of at most 10 bits summed per row: a row of 1024 stays
# below 1024 * 1023**2 < 2**30, so it is summed in uint32 without widening.
_ROW = 1024


def _sse_10bit(ref: np.ndarray, test: np.ndarray, diff: np.ndarray, square: np.ndarray) -> int:
    """Exact sum of squared differences of two flat ``uint16`` pieces of samples in [0, 1023].

    ``diff`` (``int16``) and ``square`` (``int32``) are scratch buffers of at
    least the pieces' size.
    """
    n = ref.size
    d, sq = diff[:n], square[:n]
    # |d| <= 1023, so the int16 views subtract without wrapping.
    np.subtract(ref.view(np.int16), test.view(np.int16), out=d)
    np.copyto(sq, d)
    np.multiply(sq, sq, out=sq)
    squares = sq.view(np.uint32)
    whole = n - n % _ROW
    rows = squares[:whole].reshape(-1, _ROW).sum(axis=1, dtype=np.uint32)
    return int(rows.sum(dtype=np.uint64)) + int(squares[whole:].sum(dtype=np.uint64))


def _sse(ref: np.ndarray, test: np.ndarray) -> int:
    """Exact sum of squared differences of two sample planes of at most 16 bits."""
    # Squaring the difference's bits as uint32 works modulo 2**32, which is
    # exact: |d| <= 65535, so d * d < 2**32.
    square = np.subtract(ref, test, dtype=np.int32).view(np.uint32)
    np.multiply(square, square, out=square)
    return int(square.sum(dtype=np.uint64))


def mse_plane(ref: np.ndarray, test: np.ndarray) -> float:
    """Mean squared sample difference between two equally shaped planes."""
    if ref.shape != test.shape:
        raise PlaneMismatchError(f"plane shapes differ: {ref.shape} vs {test.shape}")
    if ref.dtype != test.dtype:
        raise PlaneMismatchError(f"plane dtypes differ: {ref.dtype} vs {test.dtype}")
    if ref.dtype.kind not in "ui" or ref.dtype.itemsize > 2:
        raise PlaneMismatchError(f"planes must hold integer samples of at most 16 bits, got {ref.dtype}")
    if not ref.size:
        raise PlaneMismatchError("cannot score an empty plane")
    return _sse(ref, test) / ref.size


def _psnr(mse: float, bit_depth: int) -> float:
    """10 * log10(peak^2 / MSE) with peak = 2^bit_depth - 1; inf when MSE is 0."""
    if mse == 0.0:
        return INFINITE_PSNR
    peak = (1 << bit_depth) - 1
    return 10.0 * math.log10(peak * peak / mse)


def psnr_plane(ref: np.ndarray, test: np.ndarray, bit_depth: int) -> float:
    """10 * log10(peak^2 / MSE) with peak = 2^bit_depth - 1; inf when MSE is 0."""
    return _psnr(mse_plane(ref, test), bit_depth)


def psnr_yuv(y: float, u: float, v: float) -> float:
    """Combine per-plane PSNRs as (6*Y + U + V) / 8; infinity propagates."""
    if math.isinf(y) or math.isinf(u) or math.isinf(v):
        return INFINITE_PSNR
    return (6.0 * y + u + v) / 8.0


def score_files(
    ref: str | os.PathLike, test: str | os.PathLike, fmt: PlaneFormat
) -> QualityRecord:
    """Per-frame plane PSNRs of two raw files, arithmetic mean across frames, then combined.

    ``ref`` is read as 10-bit at ``fmt``'s geometry and ``test`` at
    ``fmt.bit_depth``. An 8-bit test is expanded to 10 bits piece by piece,
    so every variant is scored in the 10-bit domain of the source. The
    frames are split into spans (``yuv.run_spans``); in each, both files
    stream through ``read_pieces`` in lockstep, and each plane's SSE is
    summed exactly over its pieces.
    """
    ref_fmt = fmt.with_bit_depth(10)
    ref_frames, test_frames = yuv.frame_count(ref, ref_fmt), yuv.frame_count(test, fmt)
    if ref_frames != test_frames:
        raise PlaneMismatchError(
            f"frame counts differ: {ref} has {ref_frames}, {test} has {test_frames}"
        )
    if not ref_frames:
        raise PlaneMismatchError("cannot score an empty sequence")

    size = ref_fmt.piece_samples
    sizes = (ref_fmt.luma_samples, ref_fmt.chroma_samples, ref_fmt.chroma_samples)

    def buffers():
        # An 8-bit test piece is expanded into a buffer reused for every piece.
        expanded = np.empty(size, dtype=ref_fmt.dtype) if fmt.bit_depth == 8 else None
        return (np.empty(size, dtype=ref_fmt.dtype), np.empty(size, dtype=fmt.dtype),
                np.empty(size, dtype=np.int16), np.empty(size, dtype=np.int32), expanded)

    def score(span: range, buffers, stopped) -> tuple[list[float], list[float], list[float]]:
        ref_buffer, test_buffer, diff, square, expanded = buffers
        sse = [0, 0, 0]
        per_plane = ([], [], [])
        for (plane, start, ref_piece), (_, _, test_piece) in zip(
            yuv.read_pieces(ref, ref_fmt, span, ref_buffer), yuv.read_pieces(test, fmt, span, test_buffer)
        ):
            if stopped():
                break
            if expanded is not None:
                test_piece = expand_plane(test_piece, out=expanded[: test_piece.size])
            sse[plane] += _sse_10bit(ref_piece, test_piece, diff, square)
            if start + ref_piece.size == ref_fmt.frame_samples:
                for values, total, n in zip(per_plane, sse, sizes):
                    values.append(_psnr(total / n, 10))
                sse = [0, 0, 0]
        return per_plane

    spans = yuv.run_spans(ref_frames, buffers, score)
    return aggregate_frame_psnrs(*([v for part in plane for v in part] for plane in zip(*spans)))


def aggregate_frame_psnrs(
    y_values: list[float], u_values: list[float], v_values: list[float]
) -> QualityRecord:
    """Arithmetic mean of per-frame plane PSNRs, then the weighted combination.

    A single lossless frame makes the whole plane mean infinite, which then
    propagates into the combined figure.
    """
    if not y_values or len(y_values) != len(u_values) or len(y_values) != len(v_values):
        raise PlaneMismatchError("need equally many per-frame PSNRs for Y, U and V")

    def mean(values: list[float]) -> float:
        return INFINITE_PSNR if any(math.isinf(v) for v in values) else sum(values) / len(values)

    py, pu, pv = mean(y_values), mean(u_values), mean(v_values)
    return QualityRecord(py, pu, pv, psnr_yuv(py, pu, pv))


def external_metric(ref_path, test_path, command_template: str, logs: str | os.PathLike) -> float:
    """Run an external quality metric and parse its score from stdout.

    The template must contain {REF} and {TEST}; any further arguments (viewing
    parameters and the like) are the invoked tool's business and pass through
    verbatim. Placeholders are substituted after shell-style tokenization, so
    paths with spaces survive. The tool's output goes to ``<logs>.stdout.log``
    and ``<logs>.stderr.log``.
    """
    if "{REF}" not in command_template or "{TEST}" not in command_template:
        raise ValidationError("metric command template must contain {REF} and {TEST}")
    argv = render_template(command_template, {"{REF}": str(ref_path), "{TEST}": str(test_path)})
    with Child(argv, logs) as child:
        try:
            child.start()
        except OSError as exc:
            raise ExternalMetricError(f"metric command failed to start: {exc}") from exc
        returncode, _ = child.wait()
    if returncode != 0:
        raise ExternalMetricError("metric command " + child.failure(returncode))
    # Tools tend to print banners before the figure; the score is the last
    # non-empty stdout line.
    stdout = child.log("stdout").read_text(errors="replace")
    lines = [line.strip() for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ExternalMetricError("metric command printed nothing on stdout")
    try:
        score = float(lines[-1])
    except ValueError:
        raise ExternalMetricError(
            f"metric output does not end in a decimal score: {lines[-1]!r}"
        ) from None
    if not math.isfinite(score) or not (SCORE_MIN <= score <= SCORE_MAX):
        raise ExternalMetricError(f"metric score {score} outside [{SCORE_MIN}, {SCORE_MAX}]")
    return score
