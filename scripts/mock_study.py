#!/usr/bin/env python3
"""End-to-end demo study using the bundled mock codec.

Generates synthetic 10-bit 4:2:0 clips, runs the full variant/QP grid through
``hdrbench.mockcodec``, and prints the comparison table. Everything lands in
one work directory, so a second invocation reuses the result store and runs
no codec at all.

    python3 scripts/mock_study.py --output /tmp/mock_study --csv table.csv
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from hdrbench import yuv
from hdrbench.config import KNOWN_VARIANTS, RunConfig, SequenceSpec, VariantConfig
from hdrbench.pipeline import Runner
from hdrbench.report import build_table, render_text, write_csv

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("mock_study_out"),
                        help="work directory (clips, bitstreams, result store)")
    parser.add_argument("--sequences", type=int, default=2, help="number of synthetic clips")
    parser.add_argument("--frames", type=int, default=2, help="frames per clip")
    parser.add_argument("--size", type=int, default=64, help="square frame edge in pixels")
    parser.add_argument("--repetitions", type=int, default=1, help="timed runs per cell")
    parser.add_argument("--fresh", action="store_true", help="ignore cached measurements")
    parser.add_argument("--csv", type=Path, default=None, help="also write the table as CSV")
    args = parser.parse_args(argv)

    fmt = yuv.PlaneFormat(args.size, args.size, 10)
    args.output.mkdir(parents=True, exist_ok=True)
    specs = []
    for index in range(args.sequences):
        name = f"clip{index + 1}"
        path = args.output / f"{name}.yuv"
        if not path.exists():
            write_synth_clip(path, 1000 + index, fmt, args.frames)
        specs.append(SequenceSpec(name, path, fmt, 50.0))

    variants = tuple(
        VariantConfig(name, *KNOWN_VARIANTS[name], MOCK_ENCODE, MOCK_DECODE)
        for name in ("10-10", "8-10", "8-8", "8-8-nosimd")
    )
    config = RunConfig(
        sequences=tuple(specs),
        variants=variants,
        repetitions=args.repetitions,
        host_label="mockhost",
        store_path=args.output / "results.jsonl",
        work_dir=args.output / "work",
        cache="fresh" if args.fresh else "reuse",
    )

    runner = Runner(config)
    total = len(runner.plan())
    start = time.perf_counter()

    def progress(index, count, cell, state):
        print(f"[{index}/{count}] {state:8s} {cell.sequence.name}/{cell.variant.name}/qp{cell.qp}")

    store = runner.run(progress=progress)
    elapsed = time.perf_counter() - start
    print(
        f"\n{total} cells: {runner.executed_cells} measured, "
        f"{runner.reused_cells} reused, {runner.encoder_invocations} encoder "
        f"invocation(s), {runner.decoder_invocations} decoder invocation(s) in {elapsed:.1f} s\n"
    )

    table = build_table(store)
    print(render_text(table))
    if args.csv is not None:
        write_csv(table, args.csv)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
