"""Seeded synthetic inputs: 10-bit 4:2:0 clips and per-host result stores.

Everything is a pure function of the seed, so the same seed gives
byte-identical clips and stores. The program under test only ever sees the
files written here; the benchmark keeps the generating arrays as ground truth
for its oracles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

QP_LADDER = (12, 17, 22, 27, 32, 37)
FRAME_RATE = 50.0
# name -> (input_depth, internal_depth, simd_enabled), the four study routes
VARIANTS = {
    "10-10": (10, 10, True),
    "8-10": (8, 10, True),
    "8-8": (8, 8, True),
    "8-8-nosimd": (8, 8, False),
}


def frame_samples(width: int, height: int) -> int:
    return width * height * 3 // 2


def write_smooth_clip(path: Path, seed: int, width: int, height: int, frames: int) -> None:
    """Block-smooth content plus mild noise, so rates and PSNRs spread over
    the QP ladder the way camera content does. One plane at a time, so the
    benchmark's own memory stays below the program's."""
    rng = np.random.default_rng(seed)
    with open(path, "wb") as fh:
        for _ in range(frames):
            for h, w in ((height, width), (height // 2, width // 2), (height // 2, width // 2)):
                base = rng.integers(0, 1024, size=(4, 4)).astype(np.float32)
                plane = np.repeat(np.repeat(base, h // 4, axis=0), w // 4, axis=1)
                plane += rng.standard_normal(size=(h, w), dtype=np.float32) * np.float32(1023 / 120)
                np.clip(plane, 0, 1023, out=plane)
                fh.write(np.rint(plane).astype("<u2").tobytes())


def write_noise_clip(path: Path, seed: int | tuple[int, ...], width: int, height: int, frames: int) -> None:
    """Uniform 10-bit samples, streamed one frame at a time. Depth conversion
    and PSNR do the same arithmetic for every sample value, so content does
    not change their cost; only the size matters here."""
    rng = np.random.default_rng(seed)
    n = frame_samples(width, height)
    with open(path, "wb") as fh:
        for _ in range(frames):
            fh.write(rng.integers(0, 1024, size=n, dtype=np.uint16).astype("<u2").tobytes())


# -- result stores ----------------------------------------------------------


@dataclass(frozen=True)
class StudyTruth:
    """Ground truth of a synthetic multi-host study, indexed by sequence.

    ``psnr_yuv`` and ``rate_kbps`` are [sequence, variant, qp] arrays,
    ``cpu_time`` and ``energy`` are {host: [sequence, variant, qp]}.
    """

    sequences: tuple[str, ...]
    variants: tuple[str, ...]
    psnr_yuv: np.ndarray
    rate_kbps: np.ndarray
    cpu_time: dict
    energy: dict


def _spread(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One value per sequence, stratified over [lo, hi) and shuffled: every
    seed gets the same spread of curve shapes, so the report's work (curve
    crossings to find, for one) barely depends on the seed."""
    strata = (rng.permutation(n) + rng.uniform(size=n)) / n
    return (lo + (hi - lo) * strata)[:, None]


def _digest(*parts) -> str:
    return hashlib.sha256(":".join(str(p) for p in parts).encode()).hexdigest()


def synth_study(
    seed: int | tuple[int, ...],
    sequences: int,
    hosts: tuple[str, ...],
    energy_host: str,
    frames: int = 60,
    repetitions: int = 3,
    prefix: str = "seq",
) -> tuple[dict[str, list[dict]], StudyTruth]:
    """Store records (as JSON-ready dicts, one list per host) and the truth.

    Quality falls and rate falls strictly along the ladder; the 8-bit routes
    lose quality at low QP and save rate at high QP, so rate curves of 10-10
    and 8-8 cross for many sequences. Time grows at low QP, differs per route
    and host, and carries per-repetition jitter. Only ``energy_host`` has
    RAPL energy. ``8-8`` and ``8-8-nosimd`` share bitstreams, as a scalar and
    a SIMD build of one encoder do.
    """
    rng = np.random.default_rng(seed)
    names = tuple(f"{prefix}{i:03d}" for i in range(sequences))
    variants = tuple(VARIANTS)
    qps = np.array(QP_LADDER, dtype=np.float64)
    n_s, n_v, n_q = sequences, len(variants), len(QP_LADDER)

    # Rate/quality depend only on the bitstream: 10-10, 8-10, 8-8 (=nosimd).
    p0 = _spread(rng, 43.0, 50.0, n_s)
    slope = _spread(rng, 0.33, 0.45, n_s)
    psnr_ref = p0 - slope * (qps - 12.0) + rng.uniform(-0.08, 0.08, size=(n_s, n_q))
    r0 = rng.lognormal(np.log(20000.0), 0.6, size=(n_s, 1))
    rate_ref = r0 * 2.0 ** (-(qps - 12.0) / 6.0) * rng.uniform(0.985, 1.015, size=(n_s, n_q))
    loss8 = _spread(rng, 0.05, 0.4, n_s) * (37.0 - qps) / 25.0
    rate8 = 1.0 + _spread(rng, 0.01, 0.05, n_s) * (27.0 - qps) / 15.0
    psnr = np.empty((n_s, n_v, n_q))
    rate = np.empty((n_s, n_v, n_q))
    psnr[:, 0], rate[:, 0] = psnr_ref, rate_ref
    psnr[:, 1], rate[:, 1] = psnr_ref - 0.6 * loss8, rate_ref * (0.5 + 0.5 * rate8)
    psnr[:, 2], rate[:, 2] = psnr_ref - loss8, rate_ref * rate8
    psnr[:, 3], rate[:, 3] = psnr[:, 2], rate[:, 2]
    psnr_y = psnr + rng.uniform(-0.3, 0.3, size=psnr.shape)
    psnr_u = psnr + rng.uniform(0.5, 2.0, size=psnr.shape)
    psnr_v = (8.0 * psnr - 6.0 * psnr_y - psnr_u)  # so (6y + u + v) / 8 == psnr
    psnr_yuv = (6.0 * psnr_y + psnr_u + psnr_v) / 8.0
    nbytes = np.rint(rate * 1000.0 / 8.0 * frames / FRAME_RATE).astype(np.int64)
    rate_kbps = nbytes * 8.0 * FRAME_RATE / frames / 1000.0

    route_speed = np.array([1.0, 0.97, 0.84, 1.55])[None, :, None]
    base_time = _spread(rng, 8.0, 30.0, n_s)[..., None]
    ladder_time = 1.0 + 2.5 * 2.0 ** (-(qps - 12.0) / 8.0)
    cpu_time, energy = {}, {}
    per_host = {}
    for h_index, host in enumerate(hosts):
        speed = 1.0 + 0.35 * h_index
        reps = (base_time * route_speed * ladder_time * speed)[..., None] * rng.uniform(
            0.97, 1.03, size=(n_s, n_v, n_q, repetitions)
        )
        cpu = reps.mean(axis=-1)
        walls = reps * 1.015
        joules = reps * rng.uniform(30.0, 40.0) if host == energy_host else None
        cpu_time[host] = cpu
        if joules is not None:
            energy[host] = joules.mean(axis=-1)
        records = []
        for s in range(n_s):
            for v, variant in enumerate(variants):
                in_depth, internal_depth, _ = VARIANTS[variant]
                stream_class = "8-8" if variant == "8-8-nosimd" else variant
                for q, qp in enumerate(QP_LADDER):
                    samples = [
                        [float(walls[s, v, q, r]), float(reps[s, v, q, r]),
                         None if joules is None else float(joules[s, v, q, r])]
                        for r in range(repetitions)
                    ]
                    records.append({
                        "schema": 1,
                        "key": _digest("key", seed, names[s], variant, qp, host),
                        "sequence": names[s],
                        "variant": variant,
                        "qp": qp,
                        "host": host,
                        "width": 1920,
                        "height": 1080,
                        "input_depth": in_depth,
                        "internal_depth": internal_depth,
                        "frames": frames,
                        "frame_rate": FRAME_RATE,
                        "bitstream_bytes": int(nbytes[s, v, q]),
                        "bitstream_sha256": _digest("stream", seed, names[s], stream_class, qp),
                        "wall_time": float(walls[s, v, q].mean()),
                        "cpu_time": float(cpu[s, v, q]),
                        "energy_joules": None if joules is None else float(energy[host][s, v, q]),
                        "samples": samples,
                        "retained_count": repetitions,
                        "psnr_y": float(psnr_y[s, v, q]),
                        "psnr_u": float(psnr_u[s, v, q]),
                        "psnr_v": float(psnr_v[s, v, q]),
                        "psnr_yuv": float(psnr_yuv[s, v, q]),
                        "external_score": None,
                        "reported_rate_kbps": None,
                        "warnings": [],
                        "created_at": "2026-01-01T00:00:00+00:00",
                    })
        per_host[host] = records
    truth = StudyTruth(names, variants, psnr_yuv, rate_kbps, cpu_time, energy)
    return per_host, truth


def write_store(path: Path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
