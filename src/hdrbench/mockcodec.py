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

With ``--identity`` the input bytes are stored verbatim (lossless, for
sanity runs). ``--no-simd`` is accepted and ignored so that variant
templates which toggle vector instructions produce byte-identical streams,
as a real scalar/SIMD encoder pair would.

Invoke as ``python -m hdrbench.mockcodec encode|decode ...``.
"""

from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path

import numpy as np

from .bitdepth import expand_plane
from .errors import ValidationError
from .yuv import PlaneFormat, frame_count, read_pieces

MAGIC = b"MCK1"
MODE_PACKED = 0
MODE_IDENTITY = 1
_HEADER = struct.Struct("<4sBIIBbBI")  # magic, mode, w, h, depth, qp, bits, frames


class MockCodecError(ValidationError):
    """Malformed mock bitstream or unsupported settings."""


def bits_for_qp(qp: int, bit_depth: int) -> int:
    """Retained index width: one bit fewer per five QP steps above ~7."""
    dropped = round((qp - 7) / 5)
    return int(np.clip(bit_depth - dropped, 1, bit_depth))


def _join(columns: np.ndarray, bits: int) -> np.ndarray:
    """One uint64 per row holding the row's indices, first column highest."""
    word = columns[:, 0].astype(np.uint64)
    for k in range(1, columns.shape[1]):
        word <<= bits
        word |= columns[:, k]
    return word


def _split(word: np.ndarray, bits: int, out: np.ndarray) -> None:
    """Inverse of ``_join``: unpack each word into its row of ``out``.

    Shifts ``word`` in place, so it must be a temporary.
    """
    mask = (1 << bits) - 1
    for k in range(out.shape[1] - 1, -1, -1):
        out[:, k] = word & mask
        word >>= bits


def _big_endian_bytes(word: np.ndarray) -> np.ndarray:
    return word.astype(">u8").view(np.uint8).reshape(-1, 8)


def pack_indices(indices: np.ndarray, bits: int) -> bytes:
    """Pack unsigned indices below ``2**bits`` MSB first, ``ceil(n * bits / 8)`` bytes."""
    count = indices.size
    if count % 8:
        indices = np.concatenate([indices, np.zeros(-count % 8, dtype=indices.dtype)])
    groups = indices.reshape(-1, 8)
    if bits <= 8:
        packed = _big_endian_bytes(_join(groups, bits))[:, 8 - bits :]
    else:
        half, tail = 4 * bits, 8 * bits - 64  # tail: bits of ``lo`` past the first word
        hi, lo = _join(groups[:, :4], bits), _join(groups[:, 4:], bits)
        packed = np.empty((len(groups), bits), dtype=np.uint8)
        packed[:, :8] = _big_endian_bytes((hi << (64 - half)) | (lo >> tail))
        packed[:, 8:] = _big_endian_bytes(lo << (64 - tail))[:, : bits - 8]
    return np.ascontiguousarray(packed).reshape(-1)[: -(-count * bits // 8)].tobytes()


def unpack_indices(payload, count: int, bits: int) -> np.ndarray:
    """Inverse of ``pack_indices``: ``count`` indices as a uint16 array.

    ``payload`` must be exactly ``ceil(count * bits / 8)`` bytes.
    """
    groups = -(-count // 8)
    padded = np.zeros(groups * bits, dtype=np.uint8)
    padded[: -(-count * bits // 8)] = np.frombuffer(payload, dtype=np.uint8)
    out = np.empty((groups, 8), dtype=np.uint16)
    if bits <= 8:
        rows = np.zeros((groups, 8), dtype=np.uint8)
        rows[:, 8 - bits :] = padded.reshape(groups, bits)
        _split(rows.view(">u8")[:, 0].astype(np.uint64), bits, out)
    else:
        half, tail = 4 * bits, 8 * bits - 64
        rows = np.zeros((groups, 16), dtype=np.uint8)
        rows[:, :bits] = padded.reshape(groups, bits)
        words = rows.view(">u8").astype(np.uint64)
        first, second = words[:, 0], words[:, 1]
        lo = ((first & ((1 << (64 - half)) - 1)) << tail) | (second >> (64 - tail))
        _split(first >> (64 - half), bits, out[:, :4])
        _split(lo, bits, out[:, 4:])
    return out.reshape(-1)[:count]


def _read_samples(path: Path, fmt: PlaneFormat) -> tuple[np.ndarray, int]:
    frames = frame_count(path, fmt)
    data = np.empty(frames * fmt.frame_samples, dtype=fmt.dtype)
    offset = 0
    for _, _, piece in read_pieces(path, fmt):
        data[offset : offset + piece.size] = piece
        offset += piece.size
    return data, frames


def encode(input_path, output_path, fmt: PlaneFormat, qp: int, identity: bool = False) -> int:
    """Write the mock bitstream; returns its size in bytes."""
    if not -128 <= qp <= 127:
        raise MockCodecError(f"qp {qp} does not fit the header's signed byte (-128..127)")
    in_path, out_path = Path(input_path), Path(output_path)
    if identity:
        payload = in_path.read_bytes()
        frames = frame_count(in_path, fmt)
        header = _HEADER.pack(MAGIC, MODE_IDENTITY, fmt.width, fmt.height, fmt.bit_depth, qp, 0, frames)
        out_path.write_bytes(header + payload)
        return len(header) + len(payload)

    samples, frames = _read_samples(in_path, fmt)
    bits = bits_for_qp(qp, fmt.bit_depth)
    payload = pack_indices(samples >> (fmt.bit_depth - bits), bits)
    header = _HEADER.pack(MAGIC, MODE_PACKED, fmt.width, fmt.height, fmt.bit_depth, qp, bits, frames)
    out_path.write_bytes(header + payload)
    return len(header) + len(payload)


def decode(input_path, output_path, output_depth: int | None = None) -> PlaneFormat:
    """Reconstruct raw YUV from a mock bitstream; returns the output format.

    ``output_depth=10`` on an 8-bit stream rescales the reconstruction by
    appending two zero bits, mirroring an encoder that carries 8-bit input
    at a 10-bit internal depth.
    """
    blob = Path(input_path).read_bytes()
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise MockCodecError(f"{input_path}: not a mock bitstream")
    magic, mode, width, height, depth, qp, bits, frames = _HEADER.unpack_from(blob)
    fmt = PlaneFormat(width, height, depth)
    payload = memoryview(blob)[_HEADER.size :]
    total = frames * fmt.frame_samples

    if mode == MODE_IDENTITY:
        if len(payload) != total * fmt.bytes_per_sample:
            raise MockCodecError(f"{input_path}: identity payload size mismatch")
        samples = np.frombuffer(payload, dtype=fmt.dtype)
    elif mode == MODE_PACKED:
        if not 1 <= bits <= depth:
            raise MockCodecError(f"{input_path}: {bits}-bit indices in a {depth}-bit stream")
        expected = -(-total * bits // 8)
        if len(payload) != expected:
            raise MockCodecError(
                f"{input_path}: packed payload is {len(payload)} bytes, expected {expected}"
            )
        step = 1 << (depth - bits)
        samples = unpack_indices(payload, total, bits)
        samples *= step
        samples += step // 2
        samples = samples.astype(fmt.dtype, copy=False)
    else:
        raise MockCodecError(f"{input_path}: unknown mode {mode}")

    if output_depth is not None and output_depth != depth:
        if (depth, output_depth) != (8, 10):
            raise MockCodecError(f"cannot convert decode output {depth} -> {output_depth} bit")
        samples = expand_plane(samples)
        fmt = fmt.with_bit_depth(10)
    samples.astype(fmt.dtype, copy=False).tofile(output_path)
    return fmt


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
