"""Acceptance gate: one check per release criterion, one printed verdict each.

Every test prints a single ``PASS:``/``FAIL:`` line (bypassing pytest's
capture) and then asserts, so the suite both gates CI and produces a
human-readable scorecard. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from hdrbench.bitdepth import convert_file
from hdrbench.config import RunConfig, SequenceSpec, VariantConfig
from hdrbench.curves import Curve, OperatingPoint, bd_delta, find_intersections, rcd
from hdrbench.measure import MeasurementSample, aggregate, energy_delta
from hdrbench.metrics import psnr_yuv
from hdrbench.pipeline import Runner
from hdrbench.report import ReportTable, SequenceRow, build_table, render_text
from hdrbench.yuv import PlaneFormat
from tests.conftest import MOCK_DECODE, MOCK_ENCODE, quantization_noise_report, write_clip
from tests.test_akima import reference_akima
from hdrbench.akima import AkimaSpline


@pytest.fixture
def announce(capsys):
    """Print one visible verdict line for a criterion, then gate on it."""

    def _announce(criterion: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'}: {criterion} ({detail})")
        assert ok, f"{criterion}: {detail}"

    return _announce


def test_criterion_1_quantization_noise_sweep(announce):
    start = time.perf_counter()
    report = quantization_noise_report()
    elapsed = time.perf_counter() - start
    golden = 58311 / 43520  # exhaustive-sweep value, pinned
    ok = (
        1.30 <= report.mse_ideal_inverse <= 1.38
        and abs(report.mse_ideal_inverse - golden) < 1e-12
        and report.mse_shift_inverse == 533 / 128
        and report.max_abs_error_shift == 4
        and elapsed < 1.0
    )
    announce(
        "criterion 1: quantization-noise sweep",
        ok,
        f"mse_ideal={report.mse_ideal_inverse:.6f} in [1.30, 1.38], "
        f"mse_shift={report.mse_shift_inverse}",
    )


def test_criterion_2_bd_calculus_oracle(announce):
    start = time.perf_counter()

    def curve(factor):
        points = [
            OperatingPoint(50 - q, float(q), factor * 2 ** ((q - 30) / 4))
            for q in (30, 34, 38, 42, 46)
        ]
        return Curve.from_points(points)

    worst = 0.0
    for ratio in (0.5, 2.0, 10.0):
        delta = bd_delta(curve(1.0), curve(ratio))
        worst = max(worst, abs(delta - 100.0 * (ratio - 1.0)))
    base = curve(1.0)
    self_delta = bd_delta(base, base)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and self_delta == 0.0 and elapsed < 1.0
    announce(
        "criterion 2: BD calculus oracle",
        ok,
        f"max |error|={worst:.2e} over ratios {{0.5, 2, 10}}, self-delta={self_delta}",
    )


def test_criterion_3_akima_reference_equivalence(announce):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    knot_error = 0.0
    for _ in range(100):
        count = int(rng.integers(7, 13))
        xs = np.cumsum(rng.uniform(0.2, 1.5, size=count))
        ys = np.cumsum(rng.uniform(0.1, 1.2, size=count))
        spline = AkimaSpline(xs, ys)
        for x in rng.uniform(xs[0], xs[-1], size=25):
            worst = max(worst, abs(float(spline(x)) - reference_akima(list(xs), list(ys), float(x))))
        knot_error = max(knot_error, float(np.max(np.abs(spline(xs) - ys))))

    line_x = np.array([0.0, 1.0, 2.5, 4.0, 6.0])
    line = AkimaSpline(line_x, 2.0 * line_x + 1.0)
    probes = np.linspace(0.0, 6.0, 41)
    linear_error = float(np.max(np.abs(line(probes) - (2.0 * probes + 1.0))))

    ok = worst < 1e-9 and knot_error < 1e-12 and linear_error < 1e-12
    announce(
        "criterion 3: Akima matches independent reference",
        ok,
        f"max dev={worst:.2e} on 100 knot sets, knots={knot_error:.2e}, "
        f"linear={linear_error:.2e}",
    )


def test_criterion_4_intersection_consistency(announce):
    def log_line(slope, offset):
        points = [
            OperatingPoint(40 - 2 * q, float(q), 10 ** (slope * q + offset))
            for q in (1, 3, 5, 7, 9)
        ]
        return Curve.from_points(points, monotone_cost=slope > 0)

    a = log_line(1.0, 0.0)  # log10 cost = q
    b = log_line(-1.0, 10.0)  # log10 cost = 10 - q
    roots = find_intersections(a, b)
    root_ok = len(roots) == 1 and abs(roots[0] - 5.0) < 1e-6
    rcd_value = rcd(a, b, np.array([roots[0]]))[0][1] if roots else math.nan
    ok = root_ok and abs(rcd_value) < 1e-6
    announce(
        "criterion 4: curve intersection consistency",
        ok,
        f"roots={[round(r, 9) for r in roots]}, rcd(root)={rcd_value:.2e}",
    )


def test_criterion_5_summary_table_averages(announce):
    bdt_w = [-69.5, -69.4, -76.4, -76.0, -45.7, -74.9, -72.8, -72.7]
    bdt_l = [-77.7, -78.8, -84.4, -83.5, -63.3, -81.9, -81.4, -80.2]
    bdee_l = [-76.7, -77.5, -83.2, -82.3, -60.2, -80.5, -80.1, -78.8]
    rows = tuple(
        SequenceRow(
            sequence=f"s{i + 1}",
            intersection_quality=None,
            ceil_qp=None,
            bdt_percent={"W": bdt_w[i], "L": bdt_l[i]},
            bdee_percent={"L": bdee_l[i]},
        )
        for i in range(8)
    )
    table = ReportTable(
        quality_axis="psnr_yuv", baseline="10-10", contender="8-8", rows=rows,
        time_hosts=("L", "W"), energy_hosts=("L",), rate_variants=(),
    )
    averages = table.averages()
    checks = {
        "BDT[W]": (averages.bdt_percent["W"], -69.7),
        "BDT[L]": (averages.bdt_percent["L"], -78.9),
        "BDEE[L]": (averages.bdee_percent["L"], -77.4),
    }
    ok = all(abs(got - want) <= 0.05 for got, want in checks.values())
    announce(
        "criterion 5: summary-table average row",
        ok,
        ", ".join(f"{k}={got:.4f}~{want}" for k, (got, want) in checks.items()),
    )


def test_criterion_6_energy_counter_fixture(announce):
    wrap = energy_delta(before_uj=999_990, after_uj=10, max_range_uj=10**6)
    wrap_ok = wrap == 20e-6

    samples = [
        MeasurementSample(wall_time=v, cpu_time=v, energy_joules=v)
        for v in (10.0, 11.0, 10.0, 12.0, 10.0)
    ]
    trimmed = aggregate(samples)
    trim_ok = abs(trimmed.mean_cpu_time - 31.0 / 3.0) < 1e-9
    ok = wrap_ok and trim_ok
    announce(
        "criterion 6: energy counters and outlier rule",
        ok,
        f"wraparound delta={wrap * 1e6:.1f} uJ (exact 20), "
        f"trimmed mean={trimmed.mean_cpu_time:.9f}~10.333",
    )


def test_criterion_7_end_to_end_mock_study(announce, capsys, tmp_path):
    start = time.perf_counter()
    fmt = PlaneFormat(64, 64, 10)
    specs = []
    for index, name in enumerate(("alpha", "bravo")):
        path = tmp_path / f"{name}.yuv"
        write_clip(path, 100 + index, fmt, frames=2)
        specs.append(SequenceSpec(name, path, fmt, 50.0))
    variants = (
        VariantConfig("10-10", 10, 10, True, MOCK_ENCODE, MOCK_DECODE),
        VariantConfig("8-8", 8, 8, True, MOCK_ENCODE, MOCK_DECODE),
    )
    config = RunConfig(
        sequences=tuple(specs),
        variants=variants,
        repetitions=1,
        host_label="gatehost",
        store_path=tmp_path / "results.jsonl",
        work_dir=tmp_path / "work",
        rapl_domain=str(tmp_path / "no-powercap" / "intel-rapl:0"),
    )
    runner = Runner(config)
    store = runner.run()
    cells_ok = runner.executed_cells == 24 and len(store) == 24

    table = build_table(store)
    text = render_text(table)
    table_ok = (
        len(table.rows) == 2
        and all(
            row.intersection_quality is None or 20.0 < row.intersection_quality < 100.0
            for row in table.rows
        )
        and "Average" in text
    )

    warm = Runner(config)
    warm.run()
    cache_ok = warm.encoder_invocations == 0 and warm.reused_cells == 24

    elapsed = time.perf_counter() - start
    ok = cells_ok and table_ok and cache_ok and elapsed < 30.0
    # The duration varies from run to run: it goes on a line of its own, so
    # that the verdict lines print the same on every run.
    with capsys.disabled():
        print(f"time: criterion 7's study took {elapsed:.1f} s")
    announce(
        "criterion 7: end-to-end mock study with warm cache",
        ok,
        f"24 cells under 30 s, warm-run invocations={warm.encoder_invocations}",
    )


def test_criterion_8_bit_depth_invariants(announce, tmp_path):
    # The shipped conversion, 10->8 then 8->10, on a 32x32 frame whose luma
    # holds every 10-bit code once, in order.
    fmt = PlaneFormat(32, 32, 10)
    codes = np.arange(1024, dtype=np.uint16)
    clip10, clip8, back10 = tmp_path / "clip10.yuv", tmp_path / "clip8.yuv", tmp_path / "back10.yuv"
    np.concatenate([codes, codes[::-4], codes[1::4]]).astype("<u2").tofile(clip10)
    convert_file(clip10, clip8, fmt)
    convert_file(clip8, back10, fmt.with_bit_depth(8))
    samples8 = np.fromfile(clip8, dtype=np.uint8)
    samples10 = np.fromfile(back10, dtype="<u2")
    mapped, expanded = samples8[:1024], samples10[:1024]
    monotone = bool(np.all(np.diff(mapped.astype(np.int32)) >= 0))
    surjective = set(mapped.tolist()) == set(range(256))
    times_four = bool(np.array_equal(samples10, samples8.astype(np.uint16) * 4))
    bound = int(np.max(np.abs(codes.astype(np.int32) - expanded.astype(np.int32))))
    report = quantization_noise_report()
    noise_pinned = (report.mse_ideal_inverse, report.mse_shift_inverse, report.max_abs_error_shift) == (
        1.339866727941177, 4.1640625, 4
    )
    ok = monotone and surjective and times_four and bound <= 5 and noise_pinned
    announce(
        "criterion 8: bit-depth invariants over all 1024 codes",
        ok,
        f"monotone={monotone}, surjective={surjective}, x4={times_four}, "
        f"max round-trip error={bound}<=5",
    )


def test_criterion_9_weighted_psnr_properties(announce):
    arithmetic = psnr_yuv(48.0, 32.0, 32.0)
    arithmetic_ok = arithmetic == 44.0
    swap_ok = all(
        psnr_yuv(y, u, v) == psnr_yuv(y, v, u)
        for y, u, v in [(40.0, 30.0, 36.0), (55.5, 41.25, 38.75), (33.0, 33.0, 50.0)]
    )
    rng = np.random.default_rng(9)
    shift_worst = 0.0
    for _ in range(50):
        y, u, v = rng.uniform(20, 60, size=3)
        delta = rng.uniform(-5, 5)
        shift_worst = max(
            shift_worst, abs(psnr_yuv(y + delta, u + delta, v + delta) - psnr_yuv(y, u, v) - delta)
        )
    ok = arithmetic_ok and swap_ok and shift_worst < 1e-9
    announce(
        "criterion 9: weighted PSNR combination properties",
        ok,
        f"(48,32,32)->{arithmetic}, U/V swap invariant, shift error={shift_worst:.2e}",
    )
