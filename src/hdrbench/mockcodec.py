"""Deterministic stand-in codec for exercising the pipeline without HEVC.

Not a video codec: every sample is uniformly requantized with a
QP-dependent step and the indices are stored bit-packed, with no entropy
stage on top. That is enough to give the harness what it needs from a real
encoder: bitstream size and reconstruction error move monotonically with
QP, output bytes depend only on input and settings, and decode is
self-describing via a small header.

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
from .yuv import PlaneFormat, frame_count

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


def _read_samples(path: Path, fmt: PlaneFormat) -> tuple[np.ndarray, int]:
    frames = frame_count(path, fmt)
    data = np.fromfile(path, dtype=fmt.dtype)
    if data.size and int(data.max()) > fmt.max_value:
        raise MockCodecError(f"{path}: sample exceeds {fmt.bit_depth}-bit range")
    return data, frames


def encode(input_path, output_path, fmt: PlaneFormat, qp: int, identity: bool = False) -> int:
    """Write the mock bitstream; returns its size in bytes."""
    in_path, out_path = Path(input_path), Path(output_path)
    if identity:
        payload = in_path.read_bytes()
        frames = frame_count(in_path, fmt)
        header = _HEADER.pack(MAGIC, MODE_IDENTITY, fmt.width, fmt.height, fmt.bit_depth, qp, 0, frames)
        out_path.write_bytes(header + payload)
        return len(header) + len(payload)

    samples, frames = _read_samples(in_path, fmt)
    bits = bits_for_qp(qp, fmt.bit_depth)
    step = 1 << (fmt.bit_depth - bits)
    indices = (samples.astype(np.uint32) // step).astype(np.uint16)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint16)
    bit_matrix = ((indices[:, None] >> shifts) & 1).astype(np.uint8)
    payload = np.packbits(bit_matrix.reshape(-1)).tobytes()
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
    payload = blob[_HEADER.size :]

    if mode == MODE_IDENTITY:
        samples = np.frombuffer(payload, dtype=fmt.dtype).copy()
        if samples.size != frames * fmt.frame_samples:
            raise MockCodecError(f"{input_path}: identity payload size mismatch")
    elif mode == MODE_PACKED:
        total = frames * fmt.frame_samples
        unpacked = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=total * bits)
        bit_matrix = unpacked.reshape(total, bits).astype(np.uint32)
        weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.uint32))
        indices = bit_matrix @ weights
        step = 1 << (depth - bits)
        samples = np.minimum(indices * step + step // 2, fmt.max_value).astype(fmt.dtype)
    else:
        raise MockCodecError(f"{input_path}: unknown mode {mode}")

    if output_depth is not None and output_depth != depth:
        if (depth, output_depth) != (8, 10):
            raise MockCodecError(f"cannot convert decode output {depth} -> {output_depth} bit")
        samples = expand_plane(samples)
        fmt = fmt.with_bit_depth(10)
    samples.astype(fmt.dtype).tofile(output_path)
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
