"""Linear 10-bit/8-bit sample depth conversion and its quantization noise.

The forward map rescales the integer range [0, 1023] onto [0, 255] with
round-half-up; the inverse appends two zero bits (multiply by 4). The two
are deliberately asymmetric: expand(tonemap(x)) == x does not hold, only
|x - expand(tonemap(x))| <= 5.

The forward map is a gather from a 1024-entry ``uint8`` table, computed
once at import by the integer formula (x * 510 + 1023) // 2046, so it is
exact by construction. A sample outside [0, 1023] has no table entry and
raises BitDepthError instead of wrapping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .yuv import Frame, PlaneFormat, frame_count, iter_frames, write_frames


class BitDepthError(ValidationError):
    """A sample lies outside the range of its declared bit depth."""


# Integer arithmetic keeps the table bit-exact across platforms. Exact
# halves cannot occur, so the rounding mode never actually breaks ties, but
# it is pinned anyway.
_TONEMAP_LUT = ((np.arange(1024, dtype=np.uint32) * 510 + 1023) // 2046).astype(np.uint8)
_TONEMAP_LUT.setflags(write=False)
# Samples per gather: numpy copies each chunk's indices to intp, and a small
# chunk keeps that copy in cache instead of allocating 8 bytes per sample.
_GATHER_CHUNK = 1 << 16


def tonemap_plane(plane: np.ndarray) -> np.ndarray:
    """Map 10-bit samples to 8-bit: round-half-up of x * 255 / 1023."""
    # A negative index would count back from the end of the table.
    if plane.dtype.kind == "i" and plane.size and int(plane.min()) < 0:
        raise BitDepthError(f"sample value {int(plane.min())} is below the 10-bit minimum 0")
    out = np.empty(plane.shape, dtype=np.uint8)
    src, dst = plane.reshape(-1), out.reshape(-1)
    try:
        for start in range(0, src.size, _GATHER_CHUNK):
            stop = start + _GATHER_CHUNK
            np.take(_TONEMAP_LUT, src[start:stop], out=dst[start:stop])
    except IndexError:
        raise BitDepthError(
            f"sample value {int(plane.max())} exceeds the 10-bit maximum 1023"
        ) from None
    return out


def expand_plane(plane: np.ndarray) -> np.ndarray:
    """Map 8-bit samples to 10-bit by appending two zero bits (x * 4)."""
    if plane.dtype != np.uint8:
        if plane.size and not 0 <= int(plane.min()) <= int(plane.max()) <= 255:
            raise BitDepthError(f"samples span [{plane.min()}, {plane.max()}], outside the 8-bit range")
        plane = plane.astype(np.uint8)
    return np.left_shift(plane, 2, dtype=np.uint16)


def convert_file(src: str | os.PathLike, dst: str | os.PathLike, fmt: PlaneFormat) -> int:
    """Stream ``src`` (at ``fmt``) into ``dst`` at the other depth; return the frame count.

    A 10-bit ``fmt`` is tone-mapped to 8 bits, an 8-bit one is expanded to
    10 bits, with the same mapping on Y, U and V. The input is checked for
    whole frames, and refused when ``dst`` is the same file, before ``dst``
    is opened: opening it would truncate an input not read yet.
    """
    frames = frame_count(src, fmt)
    if os.path.exists(dst) and os.path.samefile(src, dst):
        raise ValidationError(f"output {dst} is the input {src}; convert into another file")
    if fmt.bit_depth == 10:
        op, out_fmt = tonemap_plane, fmt.with_bit_depth(8)
    else:
        op, out_fmt = expand_plane, fmt.with_bit_depth(10)
    write_frames(
        dst, (Frame(op(f.y), op(f.u), op(f.v), out_fmt) for f in iter_frames(src, fmt))
    )
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
    mapped = _TONEMAP_LUT.astype(np.int64)
    err_ideal = codes - (1023.0 / 255.0) * mapped
    err_shift = codes - 4 * mapped
    return NoiseReport(
        mse_ideal_inverse=float(np.mean(err_ideal**2)),
        mse_shift_inverse=float(np.mean(err_shift.astype(np.float64) ** 2)),
        max_abs_error_shift=int(np.max(np.abs(err_shift))),
    )
