"""Akima piecewise-cubic interpolation (the 1970 local method).

Chosen over global cubic splines and polynomial fits because it tracks
intermediate operating points closely without overshoot, which is what the
quality/cost curve analysis relies on. Knot slopes are the classic
divergence-weighted average of neighbouring segment slopes,

    t_i = (|m_{i+1} - m_i| * m_{i-1} + |m_{i-1} - m_{i-2}| * m_i)
          / (|m_{i+1} - m_i| + |m_{i-1} - m_{i-2}|),

with the two fictitious segment slopes on each end obtained by quadratic
extrapolation (2*m0 - m1 etc.), i.e. the original endpoint rule. When the
weight sum is exactly zero (locally collinear data) the slope degenerates
to the average of the two inner slopes, which makes the interpolant reproduce
straight lines exactly.

Evaluation is strictly limited to [x[0], x[-1]]; there is no extrapolation.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

MIN_KNOTS = 4


class InterpolationError(ValidationError):
    """Bad knots or evaluation outside the supported range."""


class AkimaSpline:
    """C1 interpolant through strictly increasing knots ``x``.

    Callable on scalars or arrays; passes through every knot exactly.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape:
            raise InterpolationError(f"knots must be matching 1-D arrays, got {x.shape} and {y.shape}")
        if x.size < MIN_KNOTS:
            raise InterpolationError(f"need at least {MIN_KNOTS} knots, got {x.size}")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise InterpolationError("knot x-values must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InterpolationError("knots must be finite")

        n = x.size
        m = np.diff(y) / dx
        # Fictitious slopes outside the data, quadratically extrapolated.
        left1 = 2.0 * m[0] - m[1]
        left2 = 2.0 * left1 - m[0]
        right1 = 2.0 * m[-1] - m[-2]
        right2 = 2.0 * right1 - m[-1]
        ext = np.concatenate(([left2, left1], m, [right1, right2]))

        # Slope at knot i uses ext[i .. i+3] == m_{i-2} .. m_{i+1}.
        dm = np.abs(np.diff(ext))
        w1 = dm[2:]      # |m_{i+1} - m_i|
        w2 = dm[:-2]     # |m_{i-1} - m_{i-2}|
        wsum = w1 + w2
        t = 0.5 * (ext[1:-2] + ext[2:-1])  # collinear fallback
        defined = wsum > 0.0
        t[defined] = (
            w1[defined] * ext[1:-2][defined] + w2[defined] * ext[2:-1][defined]
        ) / wsum[defined]

        # Hermite cubic coefficients per interval.
        self._x = x
        self._y = y
        self._t = t
        self._c2 = (3.0 * m - 2.0 * t[:-1] - t[1:]) / dx
        self._c3 = (t[:-1] + t[1:] - 2.0 * m) / (dx * dx)

    def _locate(self, q_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of the piece holding each point and the offset from its left knot."""
        if q_arr.size and (q_arr.min() < self._x[0] or q_arr.max() > self._x[-1]):
            raise InterpolationError(
                f"evaluation outside [{self._x[0]}, {self._x[-1]}] is not supported (no extrapolation)"
            )
        idx = np.clip(np.searchsorted(self._x, q_arr, side="right") - 1, 0, self._x.size - 2)
        return idx, q_arr - self._x[idx]

    def __call__(self, q):
        q_arr = np.asarray(q, dtype=np.float64)
        out = self.local_cubic(q_arr)[..., 3]
        # Exact value at the right endpoint instead of the cubic's rounding.
        out[q_arr == self._x[-1]] = self._y[-1]
        return float(out) if q_arr.ndim == 0 else out

    def local_cubic(self, q) -> np.ndarray:
        """Coefficients ``c``, highest power first, of the piece holding ``q`` in
        powers of ``x - q``: ``np.polyval(c, x - q)`` is the spline on that piece.
        Shape ``np.shape(q) + (4,)``; an inner knot takes the piece to its right."""
        idx, h = self._locate(np.asarray(q, dtype=np.float64))
        t, c2, c3 = self._t[idx], self._c2[idx], self._c3[idx]
        c0 = self._y[idx] + h * (t + h * (c2 + h * c3))
        return np.stack([c3, c2 + 3.0 * c3 * h, t + h * (2.0 * c2 + 3.0 * c3 * h), c0], axis=-1)
