"""Quality/cost curve calculus and curve CSV files.

Akima fits in (quality, log10 cost) space, one per curve; exact
Bjontegaard deltas over an arbitrary cost axis (rate, time, or energy),
relative curve differences, curve intersections, and the next-QP mapping;
``qp,quality,cost`` curve files in and interpolated comparisons out.
Report rows and tables are built from these in ``report``. Curves carry
no axis labels: pairing only curves of the same quality and cost axes is
the caller's job.

All pairwise operations work on the quality overlap of the two curves only;
nothing is ever extrapolated. With curve_a as the reference, a positive
delta means curve_b needs more rate/time/energy at equal quality.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence as Seq

import numpy as np

from .akima import AkimaSpline, MIN_KNOTS
from .errors import ValidationError

# Relative size below which a log-cost gap counts as rounding noise.
GAP_ROUNDING = 64 * np.finfo(np.float64).eps


class CurveError(ValidationError):
    """Invalid curve data or incompatible curve pair."""


@dataclass(frozen=True)
class OperatingPoint:
    """One measured ladder rung: QP, quality score, positive cost."""

    qp: int
    quality: float
    cost: float

    def __post_init__(self):
        if not math.isfinite(self.quality):
            raise CurveError(f"QP {self.qp}: quality must be finite, got {self.quality}")
        if not (self.cost > 0 and math.isfinite(self.cost)):
            raise CurveError(f"QP {self.qp}: cost must be positive and finite, got {self.cost}")


@dataclass(frozen=True)
class Curve:
    """Operating points sorted by ascending quality.

    Measured rate ladders must be monotone in both axes; ``monotone_cost=False``
    relaxes the cost check for curve files and for noisy cost axes (time,
    energy) where the quality ordering still holds.
    """

    points: tuple[OperatingPoint, ...]

    @classmethod
    def from_points(cls, points: Iterable[OperatingPoint], monotone_cost: bool = True) -> "Curve":
        pts = tuple(sorted(points, key=lambda p: p.quality))
        if len(pts) < MIN_KNOTS:
            raise CurveError(f"a curve needs at least {MIN_KNOTS} points, got {len(pts)}")
        for prev, cur in zip(pts, pts[1:]):
            if cur.quality <= prev.quality:
                raise CurveError(
                    f"quality not strictly increasing: {prev.quality} (QP {prev.qp}) "
                    f"then {cur.quality} (QP {cur.qp})"
                )
            if monotone_cost and cur.cost <= prev.cost:
                raise CurveError(
                    f"cost not strictly increasing along quality: {prev.cost} (QP {prev.qp}) "
                    f"then {cur.cost} (QP {cur.qp})"
                )
        return cls(pts)

    @property
    def qualities(self) -> np.ndarray:
        return np.array([p.quality for p in self.points])

    @property
    def costs(self) -> np.ndarray:
        return np.array([p.cost for p in self.points])

    @property
    def quality_range(self) -> tuple[float, float]:
        return self.points[0].quality, self.points[-1].quality

    @cached_property
    def spline(self) -> AkimaSpline:
        """Interpolant mapping quality to log10(cost) on the curve's range; fit once."""
        return AkimaSpline(self.qualities, np.log10(self.costs))


def overlap_range(curve_a: Curve, curve_b: Curve) -> tuple[float, float]:
    """Intersection of the two curves' quality ranges; must be non-degenerate."""
    lo = max(curve_a.quality_range[0], curve_b.quality_range[0])
    hi = min(curve_a.quality_range[1], curve_b.quality_range[1])
    if lo >= hi:
        raise CurveError(f"curves have no quality overlap ({lo} >= {hi})")
    return lo, hi


def _gap_pieces(curve_a: Curve, curve_b: Curve) -> tuple[np.ndarray, ...]:
    """The quality overlap cut at both curves' merged knots: each piece's
    left edge and width, and each spline's cubic on it (``local_cubic``)."""
    lo, hi = overlap_range(curve_a, curve_b)
    knots = np.union1d(curve_a.qualities, curve_b.qualities)
    edges = np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))
    lefts, widths = edges[:-1], np.diff(edges)
    return lefts, widths, curve_a.spline.local_cubic(lefts), curve_b.spline.local_cubic(lefts)


def bd_delta(curve_a: Curve, curve_b: Curve) -> float:
    """Average relative cost difference of curve_b versus curve_a, in percent.

    On each piece between the merged knots the log-cost gap is one cubic,
    integrated exactly; the mean gap over the quality overlap gives
    100 * (10^mean_gap - 1). Positive: curve_b costs more at equal quality.
    """
    lo, hi = overlap_range(curve_a, curve_b)
    _, widths, pieces_a, pieces_b = _gap_pieces(curve_a, curve_b)
    # The integral of c_k x^k over [0, w] is c_k w^(k+1) / (k+1).
    exponents = np.arange(4.0, 0.0, -1.0)
    integral = float(((pieces_b - pieces_a) * widths[:, None] ** exponents / exponents).sum())
    try:
        return 100.0 * (10.0 ** (integral / (hi - lo)) - 1.0)
    except OverflowError:
        gap = f"mean log10-cost gap of {integral / (hi - lo):.6g} decades over the quality overlap [{lo}, {hi}]"
        raise CurveError(f"{gap} has no finite BD delta") from None


def rcd(curve_a: Curve, curve_b: Curve, quality_grid: Seq[float]) -> list[tuple[float, float]]:
    """Relative cost difference, percent, at each grid quality.

    100 * (cost_b(q) - cost_a(q)) / cost_a(q) on the interpolated curves;
    the sign flips exactly where the curves cross.
    """
    lo, hi = overlap_range(curve_a, curve_b)
    grid = np.asarray(quality_grid, dtype=np.float64)
    if grid.size and (grid.min() < lo or grid.max() > hi):
        raise CurveError(f"grid point outside the quality overlap [{lo}, {hi}]")
    cost_a = 10.0 ** curve_a.spline(grid)
    cost_b = 10.0 ** curve_b.spline(grid)
    pct = 100.0 * (cost_b - cost_a) / cost_a
    return list(zip(grid.tolist(), pct.tolist()))


def find_intersections(curve_a: Curve, curve_b: Curve) -> list[float]:
    """Quality values where the two interpolated curves cross.

    Between the merged knots of both splines the log-cost gap is one cubic;
    its real roots split the overlap into pieces of constant sign, and a
    crossing is reported wherever that sign flips. Gap coefficients and
    values within rounding of zero count as zero, so tangent contacts do not
    count, identical curves yield the empty list, and a stretch where the
    curves coincide counts once, at its high-quality end.
    """
    lefts, widths, pieces_a, pieces_b = _gap_pieces(curve_a, curve_b)
    # A term's largest size on its interval; the rounding scale of the gap
    # there is the summed size of either spline's terms.
    powers = widths[:, None] ** np.arange(3.0, -1.0, -1.0)
    tols = GAP_ROUNDING * (np.abs([pieces_a, pieces_b]) * powers).sum(axis=2).max(axis=0)
    gaps = pieces_b - pieces_a
    gaps[np.abs(gaps) * powers <= tols[:, None]] = 0.0
    roots: list[float] = []
    sign = 0.0
    for left, width, tol, gap in zip(lefts, widths, tols, gaps):
        cuts = np.roots(gap) if gap.any() else np.empty(0)
        cuts = np.sort(cuts.real[(cuts.imag == 0.0) & (cuts.real > 0.0) & (cuts.real < width)])
        s = np.concatenate(([0.0], cuts, [width]))
        values = np.polyval(gap, 0.5 * (s[:-1] + s[1:]))
        for start, value in zip(left + s[:-1], values):
            if abs(value) <= tol:
                continue
            if sign and (value > 0.0) != (sign > 0.0):
                roots.append(float(start))
            sign = value
    return roots


def ceil_qp(intersection_quality: float, reference_curve: Curve) -> int:
    """Smallest tested QP whose measured quality lies strictly below the crossing.

    Higher QP means lower quality, so this is the first ladder rung inside
    the region where the cheaper-at-low-quality variant wins.
    """
    lo, hi = reference_curve.quality_range
    if not (lo <= intersection_quality <= hi):
        raise CurveError(
            f"intersection quality {intersection_quality} outside the curve range [{lo}, {hi}]"
        )
    below = [p.qp for p in reference_curve.points if p.quality < intersection_quality]
    if not below:
        raise CurveError(f"no tested QP below intersection quality {intersection_quality}")
    return min(below)


@dataclass(frozen=True)
class BdReport:
    """Full comparison of one curve pair on one cost axis."""

    bd_percent: float
    overlap: tuple[float, float]
    rcd_samples: tuple[tuple[float, float], ...] = ()
    intersections: tuple[float, ...] = ()
    ceil_qp: int | None = None


def compare(curve_a: Curve, curve_b: Curve, rcd_grid_size: int = 0) -> BdReport:
    """Assemble the BD percentage, optional RCD samples, intersections, and
    the next-QP value (anchored on curve_a)."""
    if rcd_grid_size < 0:
        raise CurveError(f"RCD grid size must be non-negative, got {rcd_grid_size}")
    lo, hi = overlap_range(curve_a, curve_b)
    report_rcd: tuple[tuple[float, float], ...] = ()
    if rcd_grid_size:
        grid = np.linspace(lo, hi, rcd_grid_size)
        report_rcd = tuple(rcd(curve_a, curve_b, grid))
    roots = tuple(find_intersections(curve_a, curve_b))
    qp_value = None
    if roots:
        # When a curve pair crosses more than once, the ceiling QP is anchored
        # on the highest-quality crossing.
        qp_value = ceil_qp(roots[-1], curve_a)
    return BdReport(
        bd_percent=bd_delta(curve_a, curve_b),
        overlap=(lo, hi),
        rcd_samples=report_rcd,
        intersections=roots,
        ceil_qp=qp_value,
    )


def read_curve_csv(path: str | os.PathLike) -> Curve:
    """Load operating points from a ``qp,quality,cost`` CSV file.

    Quality must rise strictly along the file's points; the cost need not,
    since a file may hold a time or energy axis as well as a rate.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CurveError(f"cannot read curve file {path}: {exc}") from exc
    with fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise CurveError(f"{path}: not UTF-8 text: {exc}") from None
    header = rows[0] if rows else None
    if header is None or [h.strip().lower() for h in header[:3]] != ["qp", "quality", "cost"]:
        raise CurveError(f"{path}: expected header 'qp,quality,cost', got {header}")
    points = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            points.append(OperatingPoint(int(row[0]), float(row[1]), float(row[2])))
        except (IndexError, ValueError) as exc:
            raise CurveError(f"{path}:{line_no}: bad curve row {row}: {exc}") from None
    return Curve.from_points(points, monotone_cost=False)


def export_comparison_csv(curve_a: Curve, curve_b: Curve, path: str | os.PathLike) -> None:
    """Write interpolated costs and the RCD at 201 evenly spaced qualities
    over the overlap, for plotting.

    Columns: quality, cost_a, cost_b, rcd_percent.
    """
    lo, hi = overlap_range(curve_a, curve_b)
    grid = np.linspace(lo, hi, 201)
    cost_a = 10.0 ** curve_a.spline(grid)
    cost_b = 10.0 ** curve_b.spline(grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quality", "cost_a", "cost_b", "rcd_percent"])
        for q, ca, cb in zip(grid, cost_a, cost_b):
            writer.writerow([f"{q:.6f}", f"{ca:.6f}", f"{cb:.6f}", f"{100.0 * (cb - ca) / ca:.6f}"])
