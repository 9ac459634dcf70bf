"""Right-continuous step functions with exact (closed-form) integration.

The curvature envelope K(r) is piecewise constant, so every integral the
bound formulas need -- K itself, its antiderivative G(u) = int K, and the
double integral int G -- has an exact segment-sum expression.  No quadrature
is used anywhere in the production path.
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
        # cumulative exact integral from breakpoints[0] up to each breakpoint
        self._cum = np.concatenate([[0.0], np.cumsum(np.diff(b) * v[:-1])])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.breakpoints, r, side="right") - 1,
                    0, self.values.size - 1)
        out = self.values[i]
        return float(out) if out.ndim == 0 else out

    def antiderivative(self, x):
        """Exact integral from breakpoints[0] to x (x may be an array)."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                    0, self.values.size - 1)
        out = self._cum[i] + self.values[i] * (x - self.breakpoints[i])
        return float(out) if out.ndim == 0 else out

    def double_integral(self, base, l):
        """Exact int_base^l ( int_base^u f(v) dv ) du for l >= base.

        The inner integral is piecewise linear in u, so each segment
        contributes G(lo)*w + f*w^2/2 with w the segment width.
        """
        if l <= base:
            return 0.0
        b = self.breakpoints
        inner = b[(b > base) & (b < l)]
        pts = np.concatenate([[base], inner, [l]])
        widths = np.diff(pts)
        mids = (pts[:-1] + pts[1:]) / 2.0
        vals = self(mids)
        g_lo = self.antiderivative(pts[:-1]) - self.antiderivative(base)
        with np.errstate(over="ignore"):  # past the float range the integral is +inf
            return float(np.sum(g_lo * widths + vals * widths * widths / 2.0))

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
