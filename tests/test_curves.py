"""Curve fitting, BD deltas, RCD, intersections, and the report row."""

import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hdrbench.curves import (
    Curve,
    CurveError,
    OperatingPoint,
    bd_delta,
    ceil_qp,
    export_comparison_csv,
    find_intersections,
    overlap_range,
    rcd,
    read_curve_csv,
)

QP_LADDER = (12, 17, 22, 27, 32, 37)


def line_curve(slope=1.0, offset=0.0, qualities=(1, 3, 5, 7, 9)):
    """Curve whose log10(cost) is a straight line in quality."""
    points = [
        OperatingPoint(qp=40 - 2 * int(q), quality=float(q), cost=10 ** (slope * q + offset))
        for q in qualities
    ]
    monotone = slope > 0
    return Curve.from_points(points, monotone_cost=monotone)


def scaled_curve(factor, qualities=(30, 34, 38, 42, 46)):
    points = [
        OperatingPoint(qp=50 - int(q), quality=float(q), cost=factor * 2 ** ((q - 30) / 4))
        for q in qualities
    ]
    return Curve.from_points(points)


def coincident_pair():
    """Two curves that coincide on [32, 42] and cross once across that stretch.

    log10 cost is 2 + 0.08 * (q - 30) at q = 30, 32, ..., 44; the second
    curve is 0.05 higher at q = 30 and 0.05 lower at q = 44.
    """
    data = Path(__file__).parent / "data"
    return read_curve_csv(data / "coincident_a.csv"), read_curve_csv(data / "coincident_b.csv")


REFERENCE_SCAN_POINTS = 4096
INTERSECTION_TOLERANCE = 1e-9


def reference_intersections(curve_a, curve_b):
    """Dense-scan and bisection search for sign changes of the log-cost gap.

    Brackets each sign change between neighbouring points of a 4096-point
    grid and bisects it to INTERSECTION_TOLERANCE; a zero exactly on a grid
    point counts only when the gap changes sign through it. It cannot
    resolve two crossings closer together than one grid step.
    """
    lo, hi = overlap_range(curve_a, curve_b)
    fa, fb = curve_a.spline, curve_b.spline
    scan = np.linspace(lo, hi, REFERENCE_SCAN_POINTS)
    g = fb(scan) - fa(scan)

    def gap(q):
        return float(fb(q) - fa(q))

    def bisect(lo, hi, g_lo):
        for _ in range(200):
            if hi - lo < INTERSECTION_TOLERANCE:
                break
            mid = 0.5 * (lo + hi)
            g_mid = gap(mid)
            if g_mid == 0.0:
                return mid
            if (g_lo < 0.0) != (g_mid < 0.0):
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        return 0.5 * (lo + hi)

    roots = []
    nonzero = np.nonzero(g)[0]
    # Only a zero or a sign change between nonzero neighbours can hold a root.
    flips = (g[:-1] != 0.0) & (g[1:] != 0.0) & ((g[:-1] < 0.0) != (g[1:] < 0.0))
    for i in np.nonzero((g[:-1] == 0.0) | flips)[0]:
        gi, gj = g[i], g[i + 1]
        if gi == 0.0:
            before = nonzero[nonzero < i]
            after = nonzero[nonzero > i]
            if before.size and after.size and (g[before[-1]] < 0.0) != (g[after[0]] < 0.0):
                if not roots or abs(roots[-1] - scan[i]) > INTERSECTION_TOLERANCE:
                    roots.append(float(scan[i]))
            continue
        if gj == 0.0 or (gi < 0.0) == (gj < 0.0):
            continue
        root = bisect(float(scan[i]), float(scan[i + 1]), float(gi))
        if not roots or abs(roots[-1] - root) > INTERSECTION_TOLERANCE:
            roots.append(root)
    return roots


def gauss_legendre_bd(curve_a, curve_b):
    """BD delta by two-point Gauss-Legendre on each merged-knot piece.

    Both splines are evaluated pointwise at the two nodes of each piece; on
    a piece the log-cost gap is one cubic, for which the rule is exact.
    """
    lo, hi = overlap_range(curve_a, curve_b)
    knots = np.union1d(curve_a.qualities, curve_b.qualities)
    edges = np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    integral = 0.0
    for node in (-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)):
        q = mids + node * halves
        integral += float(np.sum(halves * (curve_b.spline(q) - curve_a.spline(q))))
    return 100.0 * (10.0 ** (integral / (hi - lo)) - 1.0)


def random_curve_pair(rng):
    """Two 4-8 point curves around one log-linear trend, often crossing."""

    def curve(offset, tilt):
        count = int(rng.integers(4, 9))
        inner = rng.uniform(31.0, 43.0, size=count - 2)
        qualities = np.concatenate(([rng.uniform(28.0, 31.0)], inner, [rng.uniform(43.0, 48.0)]))
        qualities = np.unique(qualities)
        logs = 2 + 0.08 * (qualities - 30) + offset + tilt * (qualities - 38)
        logs += rng.normal(0.0, 0.04, size=qualities.size)
        points = [OperatingPoint(i, float(q), 10 ** y) for i, (q, y) in enumerate(zip(qualities, logs))]
        return Curve.from_points(points, monotone_cost=False)

    return curve(0.0, 0.0), curve(rng.uniform(-0.08, 0.08), rng.uniform(-0.01, 0.01))


class TestOperatingPoint:
    def test_rejects_nonpositive_cost(self):
        with pytest.raises(CurveError):
            OperatingPoint(qp=20, quality=40.0, cost=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(CurveError):
            OperatingPoint(qp=20, quality=math.inf, cost=1.0)
        with pytest.raises(CurveError):
            OperatingPoint(qp=20, quality=40.0, cost=math.nan)


class TestCurve:
    def test_sorts_by_quality(self):
        points = [
            OperatingPoint(12, 46.0, 16.0),
            OperatingPoint(37, 30.0, 1.0),
            OperatingPoint(22, 38.0, 4.0),
            OperatingPoint(27, 34.0, 2.0),
        ]
        curve = Curve.from_points(points)
        assert [p.qp for p in curve.points] == [37, 27, 22, 12]
        assert np.all(np.diff(curve.qualities) > 0)

    def test_needs_four_points(self):
        points = [OperatingPoint(30 - i, 30.0 + i, 2.0**i) for i in range(3)]
        with pytest.raises(CurveError):
            Curve.from_points(points)

    def test_rejects_duplicate_quality(self):
        points = [
            OperatingPoint(37, 30.0, 1.0),
            OperatingPoint(32, 30.0, 2.0),
            OperatingPoint(27, 34.0, 3.0),
            OperatingPoint(22, 36.0, 4.0),
        ]
        with pytest.raises(CurveError):
            Curve.from_points(points)

    def test_rejects_nonmonotone_cost_by_default(self):
        points = [
            OperatingPoint(37, 30.0, 2.0),
            OperatingPoint(32, 32.0, 1.0),
            OperatingPoint(27, 34.0, 3.0),
            OperatingPoint(22, 36.0, 4.0),
        ]
        with pytest.raises(CurveError):
            Curve.from_points(points)
        noisy = Curve.from_points(points, monotone_cost=False)
        assert len(noisy.points) == 4

    def test_quality_range(self):
        curve = scaled_curve(1.0)
        assert curve.quality_range == (30.0, 46.0)


class TestBdDelta:
    @pytest.mark.parametrize("ratio", [0.5, 2.0, 10.0])
    def test_constant_cost_ratio(self, ratio):
        base = scaled_curve(1.0)
        other = scaled_curve(ratio)
        assert bd_delta(base, other) == pytest.approx(100.0 * (ratio - 1.0), abs=1e-9)

    def test_self_comparison_is_exactly_zero(self):
        curve = scaled_curve(3.0)
        assert bd_delta(curve, curve) == 0.0

    def test_direction_convention(self):
        cheap = scaled_curve(1.0)
        costly = scaled_curve(2.0)
        assert bd_delta(cheap, costly) > 0  # second curve costs more
        assert bd_delta(costly, cheap) < 0

    def test_inverse_relation(self):
        a = scaled_curve(1.0)
        b = scaled_curve(1.7)
        forward = bd_delta(a, b) / 100.0
        backward = bd_delta(b, a) / 100.0
        assert (1 + forward) * (1 + backward) == pytest.approx(1.0, abs=1e-9)

    def test_partial_overlap_uses_shared_range_only(self):
        a = scaled_curve(1.0, qualities=(30, 34, 38, 42, 46))
        b = scaled_curve(2.0, qualities=(38, 42, 46, 50, 54))
        assert overlap_range(a, b) == (38.0, 46.0)
        assert bd_delta(a, b) == pytest.approx(100.0, abs=1e-6)

    def test_disjoint_ranges_raise(self):
        a = scaled_curve(1.0, qualities=(30, 32, 34, 36))
        b = scaled_curve(1.0, qualities=(40, 42, 44, 46))
        with pytest.raises(CurveError):
            bd_delta(a, b)

    def test_exact_against_gauss_legendre(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b = random_curve_pair(rng)
            value = bd_delta(a, b)
            assert type(value) is float
            assert math.isclose(value, gauss_legendre_bd(a, b), rel_tol=1e-12, abs_tol=1e-9)


class TestRcd:
    def test_zero_for_identical_curves(self):
        curve = scaled_curve(1.0)
        grid = np.linspace(31, 45, 20)
        values = rcd(curve, curve, grid)
        assert np.allclose([v for _, v in values], 0.0, atol=1e-12)

    def test_constant_ratio(self):
        a = scaled_curve(1.0)
        b = scaled_curve(1.5)
        values = rcd(a, b, np.linspace(30, 46, 9))
        assert np.allclose([v for _, v in values], 50.0, atol=1e-9)

    def test_rejects_grid_outside_overlap(self):
        a = scaled_curve(1.0)
        with pytest.raises(CurveError):
            rcd(a, a, np.array([29.0, 40.0]))


class TestIntersections:
    def test_crossing_lines_meet_at_five(self):
        a = line_curve(slope=1.0)  # log10 cost = q
        b = line_curve(slope=-1.0, offset=10.0)  # log10 cost = 10 - q
        roots = find_intersections(a, b)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(5.0, abs=1e-6)

    def test_rcd_vanishes_at_the_root(self):
        a = line_curve(slope=1.0)
        b = line_curve(slope=-1.0, offset=10.0)
        root = find_intersections(a, b)[0]
        (_, value), = rcd(a, b, np.array([root]))
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_parallel_curves_never_cross(self):
        a = scaled_curve(1.0)
        b = scaled_curve(1.3)
        assert find_intersections(a, b) == []

    def test_identical_endpoints_tangent_not_counted(self):
        # Curves touch at the overlap edge without a sign change.
        a = line_curve(slope=1.0, qualities=(1, 3, 5, 7, 9))
        b_points = [
            OperatingPoint(40 - 2 * q, float(q), 10 ** (q + 0.02 * (q - 1) ** 2))
            for q in (1, 3, 5, 7, 9)
        ]
        b = Curve.from_points(b_points)
        roots = find_intersections(a, b)
        for root in roots:
            assert root != pytest.approx(1.0, abs=1e-9)

    def test_coincident_stretch_counts_once_at_its_high_end(self):
        a, b = coincident_pair()
        assert find_intersections(a, b) == [42.0]
        assert find_intersections(b, a) == [42.0]
        assert find_intersections(a, a) == []

    def test_matches_scan_and_bisection_reference(self):
        rng = np.random.default_rng(2024)
        compared = crossings = 0
        for _ in range(1050):
            a, b = random_curve_pair(rng)
            lo, hi = overlap_range(a, b)
            roots = find_intersections(a, b)
            step = (hi - lo) / (REFERENCE_SCAN_POINTS - 1)
            if np.any(np.diff(roots) < step):
                continue
            expected = reference_intersections(a, b)
            assert len(roots) == len(expected)
            assert np.allclose(roots, expected, rtol=0, atol=INTERSECTION_TOLERANCE)
            compared += 1
            crossings += len(roots)
        assert compared >= 1000
        assert crossings >= compared // 2


class TestCeilQp:
    def test_next_qp_past_the_crossing(self):
        # Qualities 30..46 with qp = 50 - quality; knots below 39.0 carry
        # QPs {20, 16, 12}, and the smallest of those is the answer.
        curve = scaled_curve(1.0)
        assert ceil_qp([39.0], curve) == 12

    def test_anchors_on_the_highest_crossing(self):
        curve = scaled_curve(1.0)
        assert ceil_qp([31.0, 35.0, 39.0], curve) == 12
        assert ceil_qp([39.0, 43.0], curve) == 8

    def test_no_crossing_gives_none(self):
        assert ceil_qp([], scaled_curve(1.0)) is None

    def test_crossing_outside_range_raises(self):
        curve = scaled_curve(1.0)
        with pytest.raises(CurveError, match=r"^intersection quality 50\.0 outside the curve range"):
            ceil_qp([50.0], curve)

    def test_no_point_below_raises(self):
        curve = scaled_curve(1.0)
        with pytest.raises(CurveError, match=r"^no tested QP below intersection quality 30\.0$"):
            ceil_qp([30.0], curve)


class TestCompare:
    """The calls that ``report`` and ``hdrbench bd`` make on one curve pair."""

    def test_reports_everything(self):
        a = line_curve(slope=1.0)
        b = line_curve(slope=-1.0, offset=10.0)
        assert overlap_range(a, b) == (1.0, 9.0)
        assert len(rcd(a, b, np.linspace(1.0, 9.0, 11))) == 11
        crossings = find_intersections(a, b)
        assert crossings[0] == pytest.approx(5.0, abs=1e-6)
        # Knots below quality 5.0 carry QPs {38, 34}; the smaller one wins.
        assert ceil_qp(crossings, a) == 34

    def test_fits_each_curve_once(self, spline_fits):
        a = line_curve(slope=1.0)
        b = line_curve(slope=-1.0, offset=10.0)
        bd_delta(a, b)
        ceil_qp(find_intersections(a, b), a)
        rcd(a, b, np.linspace(1.0, 9.0, 5))
        assert len(spline_fits) == 2


class TestCsv:
    def test_round_trip(self, tmp_path):
        curve = scaled_curve(1.0)
        path = tmp_path / "curve.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["qp", "quality", "cost"])
            writer.writerows([p.qp, repr(p.quality), repr(p.cost)] for p in curve.points)
        back = read_curve_csv(path)
        assert [p.qp for p in back.points] == [p.qp for p in curve.points]
        assert np.allclose(back.qualities, curve.qualities)
        assert np.allclose(back.costs, curve.costs)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CurveError):
            read_curve_csv(path)

    def test_reads_a_byte_order_mark_and_crlf_line_ends(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"\xef\xbb\xbfqp,quality,cost\r\n37,30.0,100\r\n32,33.0,180\r\n"
                         b"27,34.0,600\r\n22,38.5,700\r\n")
        curve = read_curve_csv(path)
        assert [p.qp for p in curve.points] == [37, 32, 27, 22]
        assert curve.costs.tolist() == [100.0, 180.0, 600.0, 700.0]

    def test_skips_blank_rows(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("qp,quality,cost\n37,30.0,100\n\n , \n32,33.0,180\n27,34.0,600\n22,38.5,700\n")
        assert [p.qp for p in read_curve_csv(path).points] == [37, 32, 27, 22]

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("qp,quality,cost\n37,30.0,100\n32,33.0\n")
        with pytest.raises(CurveError, match=rf"^{re.escape(str(path))}:3: bad curve row \['32', '33.0'\]"):
            read_curve_csv(path)

    def test_export_comparison(self, tmp_path):
        a = scaled_curve(1.0)
        b = scaled_curve(2.0)
        path = tmp_path / "cmp.csv"
        export_comparison_csv(a, b, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["quality", "cost_a", "cost_b", "rcd_percent"]
        assert len(rows) == 202
        assert float(rows[1][3]) == pytest.approx(100.0, abs=1e-6)

