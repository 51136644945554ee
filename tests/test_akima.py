"""Akima spline behaviour, checked against an independent scalar evaluator.

The reference below follows the original 1970 construction directly with
plain Python loops: chord slopes, two extrapolated slopes at each end, the
weighted-slope rule with the equal-weights fallback, and a cubic Hermite
segment evaluation. It shares no code with the package implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrbench.akima import MIN_KNOTS, AkimaSpline, InterpolationError


def reference_akima(xs, ys, x):
    """Scalar Akima evaluation at one point, textbook construction."""
    n = len(xs)
    m = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(n - 1)]
    # Quadratic end extension: two virtual slopes on each side.
    ext = [2 * m[0] - m[1], *m, 2 * m[-1] - m[-2]]
    ext = [2 * ext[0] - ext[1]] + ext + [2 * ext[-1] - ext[-2]]
    t = []
    for i in range(n):
        m_m2, m_m1, m_0, m_p1 = ext[i], ext[i + 1], ext[i + 2], ext[i + 3]
        w1 = abs(m_p1 - m_0)
        w2 = abs(m_m1 - m_m2)
        if w1 + w2 == 0:
            t.append(0.5 * (m_m1 + m_0))
        else:
            t.append((w1 * m_m1 + w2 * m_0) / (w1 + w2))
    if x == xs[-1]:
        i = n - 2
    else:
        i = max(j for j in range(n - 1) if xs[j] <= x)
    h = xs[i + 1] - xs[i]
    d = x - xs[i]
    p0, p1 = ys[i], t[i]
    p2 = (3 * m[i] - 2 * t[i] - t[i + 1]) / h
    p3 = (t[i] + t[i + 1] - 2 * m[i]) / (h * h)
    return p0 + p1 * d + p2 * d * d + p3 * d * d * d


def random_knots(rng, count):
    xs = np.cumsum(rng.uniform(0.3, 2.0, size=count))
    ys = rng.uniform(-5.0, 5.0, size=count)
    return xs, ys


class TestConstruction:
    def test_needs_at_least_four_knots(self):
        with pytest.raises(InterpolationError):
            AkimaSpline([0, 1, 2], [0, 1, 2])
        AkimaSpline([0, 1, 2, 3], [0, 1, 2, 3])
        assert MIN_KNOTS == 4

    def test_rejects_unsorted_x(self):
        with pytest.raises(InterpolationError):
            AkimaSpline([0, 2, 1, 3], [0, 1, 2, 3])

    def test_rejects_duplicate_x(self):
        with pytest.raises(InterpolationError):
            AkimaSpline([0, 1, 1, 2], [0, 1, 2, 3])

    def test_rejects_non_finite(self):
        with pytest.raises(InterpolationError):
            AkimaSpline([0, 1, 2, 3], [0, 1, np.inf, 3])

    @pytest.mark.parametrize("x, y", [([0, 1, 2, 3], [0, 1, 2]), ([[0, 1], [2, 3]], [[0, 1], [2, 3]])],
                             ids=["lengths differ", "not 1-D"])
    def test_rejects_knots_of_other_shapes(self, x, y):
        with pytest.raises(InterpolationError, match="^knots must be matching 1-D arrays, got "):
            AkimaSpline(x, y)


class TestAgainstReference:
    def test_hundred_random_knot_sets(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(100):
            count = int(rng.integers(7, 13))
            xs, ys = random_knots(rng, count)
            spline = AkimaSpline(xs, ys)
            probes = rng.uniform(xs[0], xs[-1], size=40)
            for x in probes:
                deviation = abs(float(spline(x)) - reference_akima(list(xs), list(ys), float(x)))
                worst = max(worst, deviation)
        assert worst < 1e-9

    def test_knot_values_exact(self):
        rng = np.random.default_rng(7)
        xs, ys = random_knots(rng, 9)
        spline = AkimaSpline(xs, ys)
        assert np.allclose(spline(xs), ys, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(7, 12))
    def test_property_matches_reference(self, seed, count):
        rng = np.random.default_rng(seed)
        xs, ys = random_knots(rng, count)
        spline = AkimaSpline(xs, ys)
        probes = rng.uniform(xs[0], xs[-1], size=10)
        for x in probes:
            assert float(spline(x)) == pytest.approx(
                reference_akima(list(xs), list(ys), float(x)), abs=1e-9
            )


class TestShapeBehaviour:
    def test_linear_data_reproduced_exactly(self):
        xs = np.array([0.0, 1.0, 2.5, 4.0, 7.0])
        ys = 3.0 * xs - 1.0
        spline = AkimaSpline(xs, ys)
        probes = np.linspace(0, 7, 23)
        assert np.allclose(spline(probes), 3.0 * probes - 1.0, rtol=0, atol=1e-12)

    def test_constant_data_reproduced(self):
        spline = AkimaSpline([0, 1, 2, 3, 4], [5, 5, 5, 5, 5])
        assert np.allclose(spline(np.linspace(0, 4, 11)), 5.0, atol=1e-14)

    def test_continuity_at_knots(self):
        rng = np.random.default_rng(42)
        xs, ys = random_knots(rng, 8)
        spline = AkimaSpline(xs, ys)
        eps = 1e-9
        for x in xs[1:-1]:
            left = float(spline(x - eps))
            right = float(spline(x + eps))
            assert left == pytest.approx(right, abs=1e-6)

    def test_first_derivative_continuity(self):
        rng = np.random.default_rng(43)
        xs, ys = random_knots(rng, 8)
        spline = AkimaSpline(xs, ys)
        eps = 1e-6
        for x in xs[1:-1]:
            left = (float(spline(x)) - float(spline(x - eps))) / eps
            right = (float(spline(x + eps)) - float(spline(x))) / eps
            assert left == pytest.approx(right, abs=1e-3)

    def test_local_overshoot_bounded_on_step_data(self):
        # The flat-region fallback keeps the classic step example flat where
        # cubic splines would ring.
        xs = list(range(10))
        ys = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        spline = AkimaSpline(xs, ys)
        probes = np.linspace(0, 3.9, 50)
        assert np.allclose(spline(probes), 0.0, atol=1e-12)


class TestEvaluation:
    def test_no_extrapolation(self):
        spline = AkimaSpline([0, 1, 2, 3], [0, 1, 4, 9])
        with pytest.raises(InterpolationError):
            spline(-0.001)
        with pytest.raises(InterpolationError):
            spline(3.001)

    def test_endpoints_evaluate(self):
        spline = AkimaSpline([0, 1, 2, 3], [0, 1, 4, 9])
        assert float(spline(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(spline(3.0)) == pytest.approx(9.0, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        xs, ys = random_knots(rng, 10)
        spline = AkimaSpline(xs, ys)
        probes = rng.uniform(xs[0], xs[-1], size=17)
        vec = spline(probes)
        scalar = np.array([float(spline(x)) for x in probes])
        assert np.array_equal(vec, scalar)

    def test_scalar_input_returns_scalar_like(self):
        spline = AkimaSpline([0, 1, 2, 3], [0, 1, 4, 9])
        value = spline(1.5)
        assert np.ndim(value) == 0

    def test_local_cubic_reproduces_its_piece(self):
        rng = np.random.default_rng(11)
        xs, ys = random_knots(rng, 8)
        spline = AkimaSpline(xs, ys)
        centres = np.concatenate((xs, rng.uniform(xs[0], xs[-1], size=12)))
        coeffs = spline.local_cubic(centres)
        assert coeffs.shape == (centres.size, 4)
        for centre, c in zip(centres, coeffs):
            i = min(np.searchsorted(xs, centre, side="right") - 1, xs.size - 2)
            probes = np.linspace(xs[i], xs[i + 1], 9)
            assert np.allclose(np.polyval(c, probes - centre), spline(probes), rtol=0, atol=1e-12)
        assert np.array_equal(spline.local_cubic(xs[3]), coeffs[3])
        assert coeffs[0, 3] == ys[0]
        with pytest.raises(InterpolationError):
            spline.local_cubic(xs[-1] + 1e-3)
