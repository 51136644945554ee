"""Linear 10-bit/8-bit sample depth conversion and its quantization noise.

The forward map rescales the integer range [0, 1023] onto [0, 255] with
round-half-up; the inverse appends two zero bits (multiply by 4). The two
are deliberately asymmetric: expand(tonemap(x)) == x does not hold, only
|x - expand(tonemap(x))| <= 5.

The forward map is the integer formula (x * 510 + 1023) // 2046, computed
as (x - ((3 * x) >> 10) + 1) >> 2 in ``uint16`` arithmetic, which equals it
on every code in [0, 1023] (the tests check all 1024) and vectorises at two
bytes a sample where a division, a table gather or a 32-bit product does
not. A sample outside [0, 1023], or a plane that does not hold integers,
raises BitDepthError instead of wrapping or truncating.

``convert_file`` streams a file through ``yuv.read_pieces``, in one span of
frames per usable CPU (``yuv.run_spans``): each piece, already range-checked
by the reader, is converted into a piece-sized output buffer, which is
written with ``os.pwrite`` at the piece's place in the output file.
"""

from __future__ import annotations

import functools
import os
import stat
from dataclasses import dataclass

import numpy as np

from . import yuv
from .errors import ValidationError
from .yuv import PlaneFormat


class BitDepthError(ValidationError):
    """A sample lies outside the range of its declared bit depth."""


def _require_integers(plane: np.ndarray, depth: str) -> None:
    # A float sample would be truncated by the integer arithmetic below.
    if plane.dtype.kind not in "ui":
        raise BitDepthError(f"{depth} samples must be integers, got {plane.dtype}")


def _output(out: np.ndarray | None, plane: np.ndarray, dtype) -> np.ndarray:
    """``out``, checked to take ``plane``'s converted samples, or a new array."""
    if out is None:
        return np.empty(plane.shape, dtype=dtype)
    if out.dtype != dtype or out.shape != plane.shape or not out.flags.c_contiguous:
        raise BitDepthError(
            f"out must be a contiguous {np.dtype(dtype)} array of shape {plane.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


def _tonemap(samples: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Tone-map ``uint16`` samples in [0, 1023] into the ``uint8`` array ``out``.

    ``scratch`` is a ``uint16`` buffer of at least ``samples.size``; every
    intermediate stays below 2**12, so nothing wraps.
    """
    tmp = scratch[: samples.size]
    np.multiply(samples, 3, out=tmp)
    tmp >>= 10
    np.subtract(samples, tmp, out=tmp)
    tmp += 1
    tmp >>= 2
    np.copyto(out, tmp, casting="unsafe")


def tonemap_plane(plane: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map 10-bit samples to 8-bit: round-half-up of x * 255 / 1023.

    The result goes into ``out`` when given (a ``uint8`` array of the
    plane's shape), else into a new array; either is returned.
    """
    _require_integers(plane, "10-bit")
    dst = _output(out, plane, np.uint8)
    if plane.size and int(plane.min()) < 0:
        raise BitDepthError(f"sample value {int(plane.min())} is below the 10-bit minimum 0")
    if plane.size and int(plane.max()) > 1023:
        raise BitDepthError(f"sample value {int(plane.max())} exceeds the 10-bit maximum 1023")
    src = plane.reshape(-1).astype(np.uint16, copy=False)
    _tonemap(src, dst.reshape(-1), np.empty_like(src))
    return dst


def expand_plane(plane: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map 8-bit samples to 10-bit by appending two zero bits (x * 4).

    The result goes into ``out`` when given (a ``uint16`` array of the
    plane's shape), else into a new array; either is returned.
    """
    _require_integers(plane, "8-bit")
    dst = _output(out, plane, np.uint16)
    if plane.dtype != np.uint8 and plane.size and not 0 <= int(plane.min()) <= int(plane.max()) <= 255:
        raise BitDepthError(f"samples span [{plane.min()}, {plane.max()}], outside the 8-bit range")
    return np.left_shift(plane, 2, out=dst, dtype=np.uint16, casting="unsafe")


def _write_all(fd: int, samples: np.ndarray, offset: int | None) -> None:
    """Write every byte of ``samples`` at ``offset`` of ``fd``, or at its file
    position when ``offset`` is None; a short write is resumed, not lost."""
    data = memoryview(samples.view(np.uint8))
    while data:
        written = os.write(fd, data) if offset is None else os.pwrite(fd, data, offset)
        data = data[written:]
        if offset is not None:
            offset += written


def convert_file(src: str | os.PathLike, dst: str | os.PathLike, fmt: PlaneFormat) -> int:
    """Stream ``src`` (at ``fmt``) into ``dst`` at the other depth; return the frame count.

    A 10-bit ``fmt`` is tone-mapped to 8 bits, an 8-bit one is expanded to
    10 bits, with the same mapping on Y, U and V. The frames are split into
    one span per usable CPU (``yuv.run_spans``). Each span converts every
    piece ``read_pieces`` yields into a piece-sized buffer and writes it at
    its place in ``dst`` with ``os.pwrite``. A ``dst`` that cannot seek (a
    pipe, say) gets one span, written in frame order. The input is checked
    for whole frames, and refused when ``dst`` is the same file, before
    ``dst`` is touched. A conversion that fails (on a sample out of range,
    say) removes the regular file it wrote, once every span has stopped, so
    no shorter clip that looks whole is left at ``dst``.
    """
    frames = yuv.frame_count(src, fmt)
    if os.path.exists(dst) and os.path.samefile(src, dst):
        raise ValidationError(f"output {dst} is the input {src}; convert into another file")
    out_fmt = fmt.with_bit_depth(8 if fmt.bit_depth == 10 else 10)
    size = fmt.piece_samples

    def buffers():
        if fmt.bit_depth == 10:
            # The reader has range-checked every piece, so the kernel runs unchecked.
            op = functools.partial(_tonemap, scratch=np.empty(size, dtype=np.uint16))
        else:
            op = expand_plane
        return np.empty(size, dtype=fmt.dtype), np.empty(size, dtype=out_fmt.dtype), op

    with open(dst, "wb", buffering=0) as fh:
        fd, seekable = fh.fileno(), fh.seekable()

        def convert(span: range, buffers, stopped) -> None:
            raw, out, op = buffers
            offset = span.start * out_fmt.frame_bytes
            for _, _, piece in yuv.read_pieces(src, fmt, span, raw):
                if stopped():
                    return
                converted = out[: piece.size]
                op(piece, converted)
                _write_all(fd, converted, offset if seekable else None)
                offset += converted.nbytes

        try:
            yuv.run_spans(frames, buffers, convert, parallel=seekable)
        except BaseException:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.unlink(dst)
            raise
    return frames


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

    def __post_init__(self):
        if min(self.mse_ideal_inverse, self.mse_shift_inverse, self.max_abs_error_shift) < 0:
            raise ValidationError("noise statistics must be non-negative")
        if self.mse_shift_inverse < self.mse_ideal_inverse:
            raise ValidationError("shift-inverse MSE cannot beat the ideal inverse")


def quantization_noise_report() -> NoiseReport:
    """Sweep all 1024 input codes (uniform weighting) and report the noise."""
    codes = np.arange(1024, dtype=np.int64)
    mapped = tonemap_plane(codes).astype(np.int64)
    err_ideal = codes - (1023.0 / 255.0) * mapped
    err_shift = codes - 4 * mapped
    return NoiseReport(
        mse_ideal_inverse=float(np.mean(err_ideal**2)),
        mse_shift_inverse=float(np.mean(err_shift.astype(np.float64) ** 2)),
        max_abs_error_shift=int(np.max(np.abs(err_shift))),
    )
