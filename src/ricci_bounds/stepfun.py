"""Right-continuous step functions with exact (closed-form) integration.

The curvature envelope K(r) is piecewise constant, so every integral the
bound formulas need -- K itself, its antiderivative G(u) = int K, and the
double integral int G -- has an exact closed form from two running segment
sums.  No quadrature is used anywhere in the production path.
"""
from __future__ import annotations

import numpy as np


class StepFunction:
    """f(r) = values[i] on [breakpoints[i], breakpoints[i+1]); constant beyond.

    Breakpoints must be strictly increasing.  Below the first breakpoint the
    first value is used (in practice breakpoints[0] == 0).
    """

    def __init__(self, breakpoints, values):
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if b.ndim != 1 or b.shape != v.shape or b.size == 0:
            raise ValueError("breakpoints/values must be equal-length 1-d arrays")
        if np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = b
        self.values = v
        # running exact integrals from breakpoints[0] up to each breakpoint:
        # G = int f in _cum, and H = int G in _cum2
        w = np.diff(b)
        self._cum = np.concatenate([[0.0], np.cumsum(w * v[:-1])])
        self._cum2 = np.concatenate([[0.0], np.cumsum(self._cum[:-1] * w + v[:-1] * w * w / 2.0)])

    def _segment(self, x):
        """(i, x - breakpoints[i]) for the segment i holding each x."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                    0, self.values.size - 1)
        return i, x - self.breakpoints[i]

    def __call__(self, r):
        out = self.values[self._segment(r)[0]]
        return float(out) if out.ndim == 0 else out

    def antiderivative(self, x):
        """Exact integral G from breakpoints[0] to x (x may be an array)."""
        i, t = self._segment(x)
        out = self._cum[i] + self.values[i] * t
        return float(out) if out.ndim == 0 else out

    def _h(self, x):
        """H(x) = int G from breakpoints[0] to x."""
        i, t = self._segment(x)
        return self._cum2[i] + self._cum[i] * t + self.values[i] * t * t / 2.0

    def double_integral(self, base, l):
        """Exact int_base^l ( int_base^u f(v) dv ) du, 0 where l <= base (l may be an array).

        It is H(l) of f restarted at base, so each term of the two running
        sums is one segment's own integral and none cancels; past the float
        range it is +inf.
        """
        b = self.breakpoints
        starts = np.concatenate([[base], b[b > base]])
        l = np.asarray(l, dtype=float)
        with np.errstate(over="ignore"):
            out = np.where(l > base, StepFunction(starts, self(starts))._h(l), 0.0)
        return float(out) if out.ndim == 0 else out

    def support_end(self):
        """Largest breakpoint with a positive value (0.0 if none).

        The function is zero on [support_end_radius, inf) only when the value
        at that breakpoint is zero; callers use this to locate where a
        nonnegative envelope dies.
        """
        pos = np.nonzero(self.values > 0)[0]
        if pos.size == 0:
            return 0.0
        j = pos[-1]
        if j + 1 < self.breakpoints.size:
            return float(self.breakpoints[j + 1])
        return float("inf")

    def as_dict(self):
        return {"breakpoints": self.breakpoints.tolist(),
                "values": self.values.tolist()}
