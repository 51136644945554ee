#!/usr/bin/env python3
"""hdrbench benchmark: one workload per process, results as one JSON line.

    python3 perfbench/run.py --workload cold_study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: cold_study, report_merge, convert_score, measure_floor (see
BENCHMARK.json and perfbench/README.md). ``--trace 0`` reports the gated
end-to-end metrics, ``--trace 1`` the per-layer metrics from a span-traced
run. Each workload's own end-to-end figures are printed by name before the
last line, which is ``{"correct", "attempted", "failed", "metrics"}``. A
result file with the machine facts, and the spans of a traced run, land in
``.perfbench-work/results/``. Exits 1 if nothing could be measured and 2 if
the checkout has no hdrbench sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time

import env

NAMES = ("cold_study", "report_merge", "convert_score", "measure_floor")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload, each in its own process (peak RSS is per process)."""
    worst = 0
    for name in NAMES:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
        ).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if not env.use_source_tree():
        print(f"error: no hdrbench sources under {env.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    import workloads

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = env.WORK / args.workload
    results = env.WORK / "results"
    digests = env.WORK / "digests"
    shutil.rmtree(work, ignore_errors=True)
    for path in (work, results, digests):
        path.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                        work, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    missing = [m["name"] for m in gated if m["name"] not in result.metrics]
    if missing:
        print(f"error: nothing measured for {', '.join(missing)}", file=sys.stderr)
        return 1
    for metric, (value, unit, count) in result.named.items():
        print(f"{args.workload}: {metric} = {value:.6g} {unit}" + (f" (n={count})" if count else ""))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.write(results / f"{stem}.spans.jsonl")
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]} for m in gated},
    }
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": env.machine_facts(),
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in result.named.items()},
        "failures": result.failures,
        "samples": result.samples,
        **line,
    }, indent=2))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
