#!/usr/bin/env python3
"""End-to-end demo study using the bundled mock codec.

Generates synthetic 10-bit 4:2:0 clips and writes ``study.json``, a study
config in README's "Real studies" format with the four variants and the mock
codec's templates, then runs it with ``hdrbench run`` and prints the
comparison table with ``hdrbench report``. Everything lands in the output
directory, so a second invocation reuses the result store and runs no codec
at all.

    python3 scripts/mock_study.py --output /tmp/mock_study --csv table.csv
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from hdrbench import cli, yuv
from hdrbench.config import KNOWN_VARIANTS

MOCK_ENCODE = (
    f"{sys.executable} -m hdrbench.mockcodec encode --input {{INPUT}} "
    "--output {OUTPUT} --width {WIDTH} --height {HEIGHT} "
    "--bit-depth {BITDEPTH} --qp {QP}"
)
MOCK_DECODE = (
    f"{sys.executable} -m hdrbench.mockcodec decode --input {{INPUT}} "
    "--output {OUTPUT} --output-depth {BITDEPTH}"
)


def write_synth_clip(path: Path, seed: int, fmt: yuv.PlaneFormat, frames: int) -> None:
    """Smooth block content plus mild noise; enough texture to spread rates."""
    rng = np.random.default_rng(seed)

    def plane(height, width):
        base = rng.integers(0, fmt.max_value + 1, size=(4, 4)).astype(np.float64)
        big = np.kron(base, np.ones((height // 4, width // 4)))
        noisy = big + rng.normal(0.0, fmt.max_value / 120.0, size=(height, width))
        return np.clip(noisy, 0, fmt.max_value).astype(fmt.dtype)

    shapes = [(fmt.height, fmt.width)] + 2 * [(fmt.chroma_height, fmt.chroma_width)]
    with open(path, "wb") as fh:
        for _ in range(frames):
            for height, width in shapes:
                plane(height, width).tofile(fh)


def write_study(output: Path, sequences: int, frames: int, size: int, repetitions: int) -> Path:
    """Write every clip, over any earlier one, and ``output/study.json``; return the config's
    path. The store and work dir keep their defaults, which resolve inside ``output``."""
    fmt = yuv.PlaneFormat(size, size, 10)
    output.mkdir(parents=True, exist_ok=True)
    entries = []
    for index in range(sequences):
        name = f"clip{index + 1}"
        path = output / f"{name}.yuv"
        write_synth_clip(path, 1000 + index, fmt, frames)
        # A float fps: an integer would be stored as "frame_rate": 50.
        entries.append({"name": name, "path": path.name, "width": size, "height": size, "fps": 50.0})
    study = {
        "sequences": entries,
        "variants": [
            {"name": name, "encoder_template": MOCK_ENCODE, "decoder_template": MOCK_DECODE}
            for name in KNOWN_VARIANTS
        ],
        "repetitions": repetitions,
        "host_label": "mockhost",
    }
    config = output / "study.json"
    config.write_text(json.dumps(study, indent=2) + "\n")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("mock_study_out"),
                        help="work directory (clips, study config, bitstreams, result store)")
    parser.add_argument("--sequences", type=int, default=2, help="number of synthetic clips")
    parser.add_argument("--frames", type=int, default=2, help="frames per clip")
    parser.add_argument("--size", type=int, default=64, help="square frame edge in pixels")
    parser.add_argument("--repetitions", type=int, default=1, help="timed runs per cell")
    parser.add_argument("--fresh", action="store_true", help="ignore cached measurements")
    parser.add_argument("--csv", type=Path, default=None, help="also write the table as CSV")
    args = parser.parse_args(argv)

    config = write_study(args.output, args.sequences, args.frames, args.size, args.repetitions)
    start = time.perf_counter()
    status = cli.main(["run", "--config", str(config)] + ["--fresh-measurements"] * args.fresh)
    if status:
        return status
    print(f"\nstudy run in {time.perf_counter() - start:.1f} s\n")
    report = ["report", "--store", str(args.output / "results.jsonl")]
    return cli.main(report + (["--csv", str(args.csv)] if args.csv else []))


if __name__ == "__main__":
    raise SystemExit(main())
