"""Deterministic stand-in codec for exercising the pipeline without HEVC.

Not a video codec: every sample is uniformly requantized with a
QP-dependent step (a right shift that keeps its top ``bits`` bits) and the
indices are stored bit-packed, MSB first, with no entropy stage on top.
That is enough to give the harness what it needs from a real encoder:
bitstream size and reconstruction error move monotonically with QP, output
bytes depend only on input and settings, and decode is self-describing via
a small header.

Eight ``bits``-wide indices fill exactly ``bits`` bytes, so packing works
on groups of eight: each group is assembled in 64-bit words with shifts
and ORs (two words of four indices each above 8 bits), and its bytes are
written big-endian. The last group is zero-padded and the payload cut to
``ceil(samples * bits / 8)`` bytes. Decode refuses a payload of any other
length, as it refuses an identity payload that is not exactly the frames'
bytes.

Both directions stream, so memory stays O(one piece) at any clip length.
Encode shifts each piece of ``yuv.read_pieces`` into one reused index
buffer, behind the indices the previous piece left past its last whole
group, and writes each piece's groups as they are packed. Decode checks the
header, the index width, the payload's length against the file size and
the output depth before it opens the output, then unpacks fixed chunks of
groups through reused buffers and dequantizes them in place. A run that
fails part-way removes its output.

With ``--identity`` the input bytes are stored verbatim (lossless, for
sanity runs). ``--no-simd`` is accepted and ignored so that variant
templates which toggle vector instructions produce byte-identical streams,
as a real scalar/SIMD encoder pair would.

Invoke as ``python -m hdrbench.mockcodec encode|decode ...``. Run that
way, the codec sets ``OPENBLAS_NUM_THREADS=1`` before it imports numpy,
unless its caller set the variable: it makes no BLAS call.
"""

from __future__ import annotations

import argparse
import os
import stat
import struct
import sys
from pathlib import Path
from typing import Iterator

if __name__ == "__main__":
    # The codec makes no BLAS call, and an unpinned child would otherwise
    # start one OpenBLAS worker thread per CPU while importing numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402 (after the thread setting above)

from .errors import ValidationError  # noqa: E402
from .yuv import PlaneFormat, frame_count, read_pieces  # noqa: E402

MAGIC = b"MCK1"
MODE_PACKED = 0
MODE_IDENTITY = 1
_HEADER = struct.Struct("<4sBIIBbBI")  # magic, mode, w, h, depth, qp, bits, frames
# Groups of eight indices that decode unpacks at a time (one read piece's samples).
_CHUNK_GROUPS = 1 << 15
_COPY_BYTES = 1 << 20  # identity payload bytes copied at a time


class MockCodecError(ValidationError):
    """Malformed mock bitstream or unsupported settings."""


def bits_for_qp(qp: int, bit_depth: int) -> int:
    """Retained index width: one bit fewer per five QP steps above ~7."""
    dropped = round((qp - 7) / 5)
    return int(np.clip(bit_depth - dropped, 1, bit_depth))


def _join(columns: np.ndarray, bits: int, word: np.ndarray) -> None:
    """Fill ``word`` with one integer per row of indices, first column highest."""
    word[...] = columns[:, 0]
    for k in range(1, columns.shape[1]):
        word <<= bits
        word |= columns[:, k]


def _split(word: np.ndarray, bits: int, out: np.ndarray) -> None:
    """Inverse of ``_join``: unpack each word into its row of ``out``.

    Shifts ``word`` in place, so it must be scratch.
    """
    mask = (1 << bits) - 1
    for k in range(out.shape[1] - 1, -1, -1):
        np.bitwise_and(word, mask, out=out[:, k], casting="unsafe")
        word >>= bits


class _Groups:
    """Packs and unpacks up to ``capacity`` groups of eight ``bits``-wide
    indices through buffers allocated once.

    A group's indices are joined into one big-endian 64-bit word, or two of
    four indices each above 8 bits, and its ``bits`` bytes are the word's
    last ones, or the two words' first ones. ``bytes`` holds packed groups:
    ``pack`` fills it, and ``unpack`` reads what its caller put there.
    """

    def __init__(self, bits: int, capacity: int):
        self.bits = bits
        self.columns = slice(8 - bits, 8) if bits <= 8 else slice(0, bits)
        # The bytes outside ``columns`` are zero, and pack and unpack keep them so.
        self.words = np.zeros((capacity, 1 if bits <= 8 else 2), dtype=">u8")
        self.hi = np.empty(capacity, dtype=np.uint64)
        self.lo = np.empty(capacity, dtype=np.uint64)
        self.bytes = np.empty(capacity * bits, dtype=np.uint8)

    def pack(self, groups: np.ndarray) -> np.ndarray:
        """Pack ``groups`` (rows of eight indices); return their bytes, a view of ``bytes``."""
        count, bits = len(groups), self.bits
        hi, lo, words = self.hi[:count], self.lo[:count], self.words[:count]
        if bits <= 8:
            _join(groups, bits, hi)
            words[:, 0] = hi
        else:
            half, tail = 4 * bits, 8 * bits - 64  # tail: bits of ``lo`` past the first word
            _join(groups[:, :4], bits, hi)
            _join(groups[:, 4:], bits, lo)
            hi <<= 64 - half
            np.left_shift(lo, 64 - tail, out=words[:, 1])
            lo >>= tail
            np.bitwise_or(hi, lo, out=words[:, 0])
        packed = self.bytes[: count * bits]
        packed.reshape(count, bits)[...] = words.view(np.uint8)[:, self.columns]
        return packed

    def unpack(self, count: int, out: np.ndarray) -> None:
        """Unpack the first ``count`` groups of ``bytes`` into the rows of ``out``."""
        bits = self.bits
        hi, lo, words = self.hi[:count], self.lo[:count], self.words[:count]
        words.view(np.uint8)[:, self.columns] = self.bytes[: count * bits].reshape(count, bits)
        if bits <= 8:
            hi[...] = words[:, 0]
            _split(hi, bits, out)
        else:
            half, tail = 4 * bits, 8 * bits - 64
            np.bitwise_and(words[:, 0], (1 << (64 - half)) - 1, out=lo)
            lo <<= tail
            np.right_shift(words[:, 1], 64 - tail, out=hi)
            lo |= hi
            np.right_shift(words[:, 0], 64 - half, out=hi)
            _split(hi, bits, out[:, :4])
            _split(lo, bits, out[:, 4:])


def pack_indices(indices: np.ndarray, bits: int) -> bytes:
    """Pack unsigned indices below ``2**bits`` MSB first, ``ceil(n * bits / 8)`` bytes."""
    count = indices.size
    groups = -(-count // 8)
    padded = np.zeros(groups * 8, dtype=indices.dtype)
    padded[:count] = indices.reshape(-1)
    return _Groups(bits, groups).pack(padded.reshape(groups, 8))[: -(-count * bits // 8)].tobytes()


def unpack_indices(payload, count: int, bits: int) -> np.ndarray:
    """Inverse of ``pack_indices``: ``count`` indices as a uint16 array.

    ``payload`` must be exactly ``ceil(count * bits / 8)`` bytes.
    """
    groups = -(-count // 8)
    codec = _Groups(bits, groups)
    size = -(-count * bits // 8)
    codec.bytes[:size] = np.frombuffer(payload, dtype=np.uint8)
    out = np.empty((groups, 8), dtype=np.uint16)
    codec.unpack(groups, out)
    return out.reshape(-1)[:count]


def _write(path, chunks) -> int:
    """Write every buffer of ``chunks`` to ``path``; return the file's size.

    If anything fails part-way, a regular file is removed again, so a failed
    run leaves no output.
    """
    with open(path, "wb") as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            return fh.tell()
        except BaseException:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.unlink(path)
            raise


def _read_into(fh, buffer: np.ndarray, path) -> np.ndarray:
    if fh.readinto(buffer) != buffer.nbytes:
        raise MockCodecError(f"{path}: payload ended early")
    return buffer


def _identity_stream(path: Path, header: bytes) -> Iterator:
    yield header
    with open(path, "rb") as fh:
        while chunk := fh.read(_COPY_BYTES):
            yield chunk


def _packed_stream(path: Path, fmt: PlaneFormat, frames: int, bits: int, header: bytes) -> Iterator:
    """Yield ``header``, then the packed indices of ``path``, piece by piece.

    Each piece is shifted into ``indices`` behind the (at most seven)
    indices carried past the previous piece's last whole group.
    """
    yield header
    shift = fmt.bit_depth - bits
    codec = _Groups(bits, fmt.piece_samples // 8 + 1)
    indices = np.empty(fmt.piece_samples + 8, dtype=fmt.dtype)
    carried = 0
    for _, _, piece in read_pieces(path, fmt, range(frames)):
        end = carried + piece.size
        np.right_shift(piece, shift, out=indices[carried:end])
        whole = end - end % 8
        if whole:
            yield codec.pack(indices[:whole].reshape(-1, 8))
        carried = end - whole
        indices[:carried] = indices[whole:end]
    if carried:
        indices[carried:8] = 0
        yield codec.pack(indices[:8].reshape(1, 8))[: -(-carried * bits // 8)]


def encode(input_path, output_path, fmt: PlaneFormat, qp: int, identity: bool = False) -> int:
    """Write the mock bitstream; returns its size in bytes."""
    if not -128 <= qp <= 127:
        raise MockCodecError(f"qp {qp} does not fit the header's signed byte (-128..127)")
    in_path = Path(input_path)
    frames = frame_count(in_path, fmt)
    if identity:
        header = _HEADER.pack(MAGIC, MODE_IDENTITY, fmt.width, fmt.height, fmt.bit_depth, qp, 0, frames)
        return _write(output_path, _identity_stream(in_path, header))
    bits = bits_for_qp(qp, fmt.bit_depth)
    header = _HEADER.pack(MAGIC, MODE_PACKED, fmt.width, fmt.height, fmt.bit_depth, qp, bits, frames)
    return _write(output_path, _packed_stream(in_path, fmt, frames, bits, header))


def _identity_samples(fh, path, fmt: PlaneFormat, total: int, out_fmt: PlaneFormat) -> Iterator:
    raw = np.empty(8 * _CHUNK_GROUPS, dtype=fmt.dtype)
    wide = np.empty(raw.size, dtype=out_fmt.dtype)
    for first in range(0, total, raw.size):
        samples = _read_into(fh, raw[: min(raw.size, total - first)], path)
        if out_fmt.bit_depth == fmt.bit_depth:
            yield samples
        else:
            yield np.left_shift(samples, 2, out=wide[: samples.size], dtype=out_fmt.dtype)


def _packed_samples(fh, path, fmt: PlaneFormat, total: int, bits: int, out_fmt: PlaneFormat) -> Iterator:
    """Yield the reconstruction at ``out_fmt``'s depth, one chunk of groups at a time.

    Index ``i`` becomes ``i * step + step // 2`` with ``step = 2**(depth - bits)``,
    times 4 for an 8-bit stream written at 10 bits: one shift and one OR, in place.
    """
    widen = out_fmt.bit_depth - fmt.bit_depth
    shift = fmt.bit_depth - bits + widen
    offset = ((1 << (fmt.bit_depth - bits)) >> 1) << widen
    codec = _Groups(bits, _CHUNK_GROUPS)
    out = np.empty((_CHUNK_GROUPS, 8), dtype=out_fmt.dtype)
    for first in range(0, total, out.size):
        count = min(out.size, total - first)
        groups, size = -(-count // 8), -(-count * bits // 8)
        _read_into(fh, codec.bytes[:size], path)
        codec.unpack(groups, out[:groups])
        samples = out.reshape(-1)[:count]
        samples <<= shift
        samples |= offset
        yield samples


def decode(input_path, output_path, output_depth: int | None = None) -> PlaneFormat:
    """Reconstruct raw YUV from a mock bitstream; returns the output format.

    ``output_depth=10`` on an 8-bit stream rescales the reconstruction by
    appending two zero bits, mirroring an encoder that carries 8-bit input
    at a 10-bit internal depth. The header, the payload's length and the
    output depth are all checked before the output is opened.
    """
    with open(input_path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != MAGIC:
            raise MockCodecError(f"{input_path}: not a mock bitstream")
        _, mode, width, height, depth, _, bits, frames = _HEADER.unpack(head)
        fmt = PlaneFormat(width, height, depth)
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        total = frames * fmt.frame_samples

        if mode == MODE_IDENTITY:
            if payload != total * fmt.bytes_per_sample:
                raise MockCodecError(f"{input_path}: identity payload size mismatch")
        elif mode == MODE_PACKED:
            if not 1 <= bits <= depth:
                raise MockCodecError(f"{input_path}: {bits}-bit indices in a {depth}-bit stream")
            expected = -(-total * bits // 8)
            if payload != expected:
                raise MockCodecError(f"{input_path}: packed payload is {payload} bytes, expected {expected}")
        else:
            raise MockCodecError(f"{input_path}: unknown mode {mode}")

        out_fmt = fmt
        if output_depth is not None and output_depth != depth:
            if (depth, output_depth) != (8, 10):
                raise MockCodecError(f"cannot convert decode output {depth} -> {output_depth} bit")
            out_fmt = fmt.with_bit_depth(10)

        if mode == MODE_IDENTITY:
            samples = _identity_samples(fh, input_path, fmt, total, out_fmt)
        else:
            samples = _packed_samples(fh, input_path, fmt, total, bits, out_fmt)
        _write(output_path, samples)
    return out_fmt


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mockcodec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode")
    enc.add_argument("--input", required=True)
    enc.add_argument("--output", required=True)
    enc.add_argument("--width", type=int, required=True)
    enc.add_argument("--height", type=int, required=True)
    enc.add_argument("--bit-depth", type=int, required=True, choices=(8, 10))
    enc.add_argument("--qp", type=int, required=True)
    enc.add_argument("--identity", action="store_true")
    enc.add_argument("--no-simd", action="store_true", help="accepted and ignored")
    enc.add_argument("--fps", type=float, default=None, help="accepted and ignored")

    dec = sub.add_parser("decode")
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", required=True)
    dec.add_argument("--output-depth", type=int, default=None, choices=(8, 10))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "encode":
            fmt = PlaneFormat(args.width, args.height, args.bit_depth)
            encode(args.input, args.output, fmt, args.qp, identity=args.identity)
        else:
            decode(args.input, args.output, output_depth=args.output_depth)
    except (ValidationError, OSError) as exc:
        print(f"mockcodec: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
