"""Linear 10-bit/8-bit sample depth conversion.

The forward map rescales the integer range [0, 1023] onto [0, 255] with
round-half-up; the inverse appends two zero bits (multiply by 4). The two
are deliberately asymmetric: expand(tonemap(x)) == x does not hold, only
|x - expand(tonemap(x))| <= 5.

The forward map is the integer formula (x * 510 + 1023) // 2046, computed
as (x - ((3 * x) >> 10) + 1) >> 2 in ``uint16`` arithmetic, which equals it
on every code in [0, 1023] (the tests check all 1024) and vectorises at two
bytes a sample where a division, a table gather or a 32-bit product does
not. Neither kernel checks its input: ``yuv.read_pieces``, the only source
of their samples, range-checks every piece and raises ``SampleRangeError``
with the offending sample's index in the file.

``convert_file`` streams a file through ``yuv.read_pieces``, in one span of
frames per usable CPU (``yuv.run_spans``): each piece, already range-checked
by the reader, is converted into a piece-sized buffer, which ``yuv.write_all``
writes with ``os.pwrite`` at its place in the output. ``yuv.open_output``
opens the output: it refuses the input, writes a new file in place of an old
one, and removes a failed conversion's file.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from . import yuv
from .yuv import PlaneFormat


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


def expand_plane(plane: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Map ``uint8`` samples to 10-bit by appending two zero bits (x * 4),
    into the ``uint16`` array ``out`` of the same shape; return ``out``."""
    return np.left_shift(plane, 2, out=out, dtype=np.uint16)


def convert_file(src: str | os.PathLike, dst: str | os.PathLike, fmt: PlaneFormat) -> int:
    """Stream ``src`` (at ``fmt``) into ``dst`` at the other depth; return the frame count.

    A 10-bit ``fmt`` is tone-mapped to 8 bits, an 8-bit one is expanded to
    10 bits, with the same mapping on Y, U and V. The frames are split into
    one span per usable CPU (``yuv.run_spans``). Each span converts every
    piece ``read_pieces`` yields into a piece-sized buffer and writes it at
    its place in ``dst`` with ``os.pwrite``. A ``dst`` that cannot seek (a
    pipe, say) is written by the calling thread alone, in frame order. The
    input is checked for whole frames, and refused when ``dst`` is the same
    file, before ``dst`` is touched; an old file at ``dst`` is replaced by a
    new one. A failed conversion (a sample out of range, say) removes the
    file it wrote once every span has stopped, so no shorter clip that looks
    whole is left.
    """
    frames = yuv.frame_count(src, fmt)
    out_fmt = fmt.with_bit_depth(8 if fmt.bit_depth == 10 else 10)
    size = fmt.piece_samples

    def buffers():
        if fmt.bit_depth == 10:
            op = functools.partial(_tonemap, scratch=np.empty(size, dtype=np.uint16))
        else:
            op = expand_plane
        return np.empty(size, dtype=fmt.dtype), np.empty(size, dtype=out_fmt.dtype), op

    with yuv.open_output(dst, src) as fh:
        fd, seekable = fh.fileno(), fh.seekable()

        def convert(span: range, buffers, stopped) -> None:
            raw, out, op = buffers
            offset = span.start * out_fmt.frame_bytes
            for _, _, piece in yuv.read_pieces(src, fmt, span, raw):
                if stopped():
                    return
                converted = out[: piece.size]
                op(piece, converted)
                yuv.write_all(fd, converted, offset if seekable else None)
                offset += converted.nbytes

        if seekable:
            yuv.run_spans(frames, buffers, convert)
        else:
            convert(range(frames), buffers(), lambda: False)
    return frames
