"""Output checks that share no code with hdrbench.

Each check recomputes what the program should have produced, from the files
the benchmark generated and the documented rules, and returns a list of
mismatch descriptions (empty when the output is right). BD deltas are
recomputed with SciPy's Akima interpolator and Simpson rule.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import Akima1DInterpolator

PSNR_TOLERANCE_DB = 1e-6
BD_TOLERANCE_PCT = 1e-6
BD_SAMPLES = 1001
CHUNK = 1 << 18
# Mock bitstream header: magic(4) mode(1) width(4) height(4) depth(1) qp(1) bits(1) frames(4).
MOCK_HEADER_BYTES = 20


def _blocks(path: Path, size: int):
    with open(path, "rb") as fh:
        while block := fh.read(size):
            yield block


def tonemap_mismatches(src10: Path, out8: Path, width: int, height: int) -> list[str]:
    """Every 8-bit sample must equal (x * 510 + 1023) // 2046 of its source."""
    n = width * height * 3 // 2
    bad = _size_mismatch(src10, 2 * n, out8, n)
    if bad:
        return bad
    wrong = 0
    for a, b in zip(_blocks(src10, 2 * CHUNK), _blocks(out8, CHUNK)):
        x = np.frombuffer(a, dtype="<u2").astype(np.int64)
        wrong += int(np.count_nonzero(np.frombuffer(b, dtype=np.uint8) != (x * 510 + 1023) // 2046))
    return [f"{out8.name}: {wrong} sample(s) differ from the tonemap rule"] if wrong else []


def expand_mismatches(src8: Path, out10: Path, width: int, height: int) -> list[str]:
    """Every 10-bit sample must equal its 8-bit source shifted left by two."""
    n = width * height * 3 // 2
    bad = _size_mismatch(src8, n, out10, 2 * n)
    if bad:
        return bad
    wrong = 0
    for a, b in zip(_blocks(src8, CHUNK), _blocks(out10, 2 * CHUNK)):
        x = np.frombuffer(a, dtype=np.uint8).astype(np.uint16)
        wrong += int(np.count_nonzero(np.frombuffer(b, dtype="<u2") != (x << 2)))
    return [f"{out10.name}: {wrong} sample(s) differ from x << 2"] if wrong else []


def _size_mismatch(a: Path, a_frame: int, b: Path, b_frame: int) -> list[str]:
    na, ra = divmod(a.stat().st_size, a_frame)
    nb, rb = divmod(b.stat().st_size, b_frame) if b.exists() else (-1, 0)
    if ra or rb or na != nb:
        return [f"{b.name}: {nb} frame(s) for {na} source frame(s)"]
    return []


def _psnr(sse: int, count: int) -> float:
    return math.inf if sse == 0 else 10.0 * math.log10(1023.0 * 1023.0 * count / sse)


def _combine(per_frame: list[tuple[float, float, float]]) -> dict[str, float]:
    planes = {}
    for name, values in zip(("psnr_y", "psnr_u", "psnr_v"), zip(*per_frame)):
        planes[name] = math.inf if any(math.isinf(v) for v in values) else sum(values) / len(values)
    y, u, v = planes["psnr_y"], planes["psnr_u"], planes["psnr_v"]
    planes["psnr_yuv"] = math.inf if math.inf in (y, u, v) else (6.0 * y + u + v) / 8.0
    return planes


def _plane_psnrs(ref: np.ndarray, test, width: int, height: int) -> tuple[float, float, float]:
    """Y, U, V PSNR of one frame from exact integer SSE. ``test`` maps a slice
    of the reference to the test samples. Small chunks keep the benchmark's
    own memory below the program's, so peak RSS measures the program."""
    ny, nc = width * height, width * height // 4
    out = []
    for a, b in ((0, ny), (ny, ny + nc), (ny + nc, ny + 2 * nc)):
        sse = 0
        for lo in range(a, b, CHUNK):
            hi = min(lo + CHUNK, b)
            r = ref[lo:hi].astype(np.int64)
            d = r - test(r, lo, hi)
            sse += int(np.dot(d, d))
        out.append(_psnr(sse, b - a))
    return tuple(out)


def file_psnr(ref10: Path, test10: Path, width: int, height: int) -> dict[str, float]:
    """Per-plane PSNR of two 10-bit files (exact integer SSE per frame),
    averaged over frames, plus the (6Y + U + V) / 8 combination."""
    n = width * height * 3 // 2
    per_frame = []
    for a, b in zip(_blocks(ref10, 2 * n), _blocks(test10, 2 * n)):
        test = np.frombuffer(b, dtype="<u2")
        ref = np.frombuffer(a, dtype="<u2")
        per_frame.append(_plane_psnrs(ref, lambda r, lo, hi: test[lo:hi], width, height))
    return _combine(per_frame)


def mock_bits(qp: int, depth: int) -> int:
    """Index width the mock codec keeps: one bit fewer per five QP steps above 7."""
    return min(max(depth - round((qp - 7) / 5), 1), depth)


def mock_cell_psnr(src10: Path, width: int, height: int, input_depth: int, qp: int) -> dict[str, float]:
    """PSNR the pipeline must report for one mock-codec cell.

    The reconstruction is rebuilt from the source clip by the documented
    rules: tonemap to 8 bits for 8-bit routes, uniform requantisation with
    step 2**(depth - bits) and mid-step reconstruction, and << 2 back to
    10 bits for 8-bit routes. It is then scored against the source.
    """
    n = width * height * 3 // 2
    step = 1 << (input_depth - mock_bits(qp, input_depth))
    top = (1 << input_depth) - 1

    def recon(src, lo, hi):
        x = src if input_depth == 10 else (src * 510 + 1023) // 2046
        r = np.minimum(x // step * step + step // 2, top)
        return r if input_depth == 10 else r << 2

    per_frame = [
        _plane_psnrs(np.frombuffer(raw, dtype="<u2"), recon, width, height)
        for raw in _blocks(src10, 2 * n)
    ]
    return _combine(per_frame)


def mock_bitstream_bytes(frames: int, width: int, height: int, depth: int, qp: int) -> int:
    """Header plus ceil(samples * bits / 8) packed index bits."""
    return MOCK_HEADER_BYTES + math.ceil(frames * width * height * 3 // 2 * mock_bits(qp, depth) / 8)


def psnr_mismatches(where: str, expected: dict[str, float], reported: dict[str, float]) -> list[str]:
    out = []
    for key, want in expected.items():
        got = reported[key]
        same = got == want if math.isinf(want) else abs(got - want) <= PSNR_TOLERANCE_DB
        if not same:
            out.append(f"{where}: {key} {got!r} != recomputed {want!r}")
    return out


def bd_percent(quality_a, cost_a, quality_b, cost_b) -> float:
    """Average cost difference of curve b over curve a, percent, at equal quality."""
    order_a, order_b = np.argsort(quality_a), np.argsort(quality_b)
    qa, qb = np.asarray(quality_a, float)[order_a], np.asarray(quality_b, float)[order_b]
    fa = Akima1DInterpolator(qa, np.log10(np.asarray(cost_a, float)[order_a]))
    fb = Akima1DInterpolator(qb, np.log10(np.asarray(cost_b, float)[order_b]))
    lo, hi = max(qa[0], qb[0]), min(qa[-1], qb[-1])
    q = np.linspace(lo, hi, BD_SAMPLES)
    mean_gap = simpson(fb(q) - fa(q), x=q) / (hi - lo)
    return 100.0 * (10.0**mean_gap - 1.0)


def table_mismatches(rows: dict[str, dict[str, dict[str, float]]], expected: dict) -> list[str]:
    """Compare {sequence: {"rate"|"time"|"energy": {column: pct}}} tables."""
    out = []
    if set(rows) != set(expected):
        out.append(f"table sequences {sorted(rows)[:3]}... != expected {sorted(expected)[:3]}...")
        return out
    for seq, kinds in expected.items():
        for kind, columns in kinds.items():
            got = rows[seq].get(kind, {})
            if set(got) != set(columns):
                out.append(f"{seq}: {kind} columns {sorted(got)} != {sorted(columns)}")
                continue
            for column, want in columns.items():
                if not abs(got[column] - want) <= BD_TOLERANCE_PCT:
                    out.append(f"{seq}: {kind}[{column}] {got[column]!r} != recomputed {want!r}")
    return out


def warm_mismatches(encoder_invocations: int, executed: int, reused: int, planned: int) -> list[str]:
    """A rerun against a filled store must be served entirely from it."""
    if encoder_invocations or executed or reused != planned:
        return [
            f"warm rerun ran {encoder_invocations} encoder(s), executed {executed} cell(s), "
            f"reused {reused} of {planned}"
        ]
    return []


def sample_mismatches(where: str, samples, repetitions: int, mean_wall: float) -> list[str]:
    """A measurement must hold every repetition, all timed, with a matching mean."""
    walls = [s.wall_time for s in samples]
    if len(walls) != repetitions:
        return [f"{where}: {len(walls)} sample(s) for {repetitions} repetition(s)"]
    if min(walls) <= 0.0 or any(s.cpu_time < 0.0 for s in samples):
        return [f"{where}: non-positive wall or negative CPU time"]
    if abs(sum(walls) / len(walls) - mean_wall) > 1e-12 * max(1.0, mean_wall):
        return [f"{where}: mean wall {mean_wall!r} != mean of samples"]
    return []
