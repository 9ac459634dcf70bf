"""Exact reference for the alpha = 1 drift-jump process: the Dickman law.

At drift alpha = 1 the stationary law of the drift-jump process has density
e^{-gamma} rho(u) on u >= 0, where rho is the Dickman function (Dickman 1930;
de Bruijn 1951): rho = 1 on [0, 1] and u rho'(u) = -rho(u - 1) for u > 1.
Its Laplace transform E[e^{lambda X}] is exp(I(lambda)), the package's
`transform_I`.  This module is a test oracle: it tabulates rho on a fine
grid and derives tails, moments and the log-Laplace transform from the table,
and it evaluates I(lambda) itself by quadrature.

Scheme.  Integrating u rho'(u) = -rho(u - 1) gives the equivalent form
u rho(u) = int_{u-1}^u rho(t) dt.  The integral is taken by the trapezoid
rule on a grid that holds the integers (where rho's derivatives jump), so
each new value is a positive combination of earlier ones.  Stepping the
derivative form forward instead subtracts nearly equal numbers: its error
decays only like 1/u while rho decays like u^{-u}, and it spoils the
far tail.  The trapezoid error is c(u) h^2 + O(h^4); running the scheme at
steps h and h/2 and combining the tables as (4 T_{h/2} - T_h)/3
(Richardson) cancels the h^2 term.  Integrals over the table use Simpson's
rule on the same grid.  Closed forms agree to about 1e-13.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

EULER_GAMMA = 0.5772156649015329
STEPS_PER_UNIT = 1000  # coarse step h = 1e-3; the fine run uses h/2
U_MAX = 24  # rho(24) = 2e-37; the table ignores the mass beyond it


def _trapezoid_table(steps_per_unit: int) -> list:
    """rho at k/steps_per_unit for 0 <= k <= U_MAX * steps_per_unit."""
    n = steps_per_unit
    rho = [1.0] * (n + 1)
    inner = 0.0  # sum of rho over the open window (i - n, i)
    for i in range(n + 1, U_MAX * n + 1):
        if i % n == 1:  # re-sum once per unit, so round-off stays relative
            inner = math.fsum(rho[i - n + 1:i])
        else:
            inner += rho[i - 1] - rho[i - n]
        # i h rho_i = h (rho_{i-n}/2 + inner + rho_i/2), solved for rho_i
        rho.append((0.5 * rho[i - n] + inner) / (i - 0.5))
    return rho


@lru_cache(maxsize=1)
def dickman_table() -> tuple:
    """(u, rho) on the grid of step 1/STEPS_PER_UNIT over [0, U_MAX]."""
    coarse = np.array(_trapezoid_table(STEPS_PER_UNIT))
    fine = np.array(_trapezoid_table(2 * STEPS_PER_UNIT))[::2]
    rho = (4.0 * fine - coarse) / 3.0
    u = np.arange(rho.size) / STEPS_PER_UNIT
    u.setflags(write=False)
    rho.setflags(write=False)
    return u, rho


def _grid_index(x: float) -> int:
    index = round(x * STEPS_PER_UNIT)
    if not (0 <= index <= U_MAX * STEPS_PER_UNIT
            and math.isclose(index / STEPS_PER_UNIT, x, abs_tol=1e-12)):
        raise ValueError(f"{x} is not a point of the oracle grid")
    return index


def _integral(weight=None, lower: float = 0.0) -> float:
    """int_lower^U_MAX weight(u) rho(u) du by composite Simpson's rule."""
    u, rho = dickman_table()
    start = _grid_index(lower)
    if (rho.size - 1 - start) % 2:
        raise ValueError("Simpson's rule needs an even number of intervals")
    f = rho[start:] if weight is None else weight(u[start:]) * rho[start:]
    return float(f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                 + 2.0 * f[2:-1:2].sum()) / (3.0 * STEPS_PER_UNIT)


def dickman_rho(x: float) -> float:
    """rho(x) at a point of the grid."""
    return float(dickman_table()[1][_grid_index(x)])


def dickman_tail(level: float) -> float:
    """P(X >= level) for X with density e^{-gamma} rho; level on the grid."""
    return math.exp(-EULER_GAMMA) * _integral(lower=level)


def dickman_moment(power: int) -> float:
    """E[X^power] under the Dickman law."""
    return math.exp(-EULER_GAMMA) * _integral(lambda u: u ** power)


def dickman_log_laplace(lam: float) -> float:
    """ln E[e^{lambda X}] under the Dickman law, which is transform_I(lam).

    The table stops at U_MAX, so this is exact to ~1e-13 only for
    lambda <= 2; e^{lambda u} rho(u) peaks where u ln u is about e^lambda.
    """
    return -EULER_GAMMA + math.log(_integral(lambda u: np.exp(lam * u)))


def transform_I_quadrature(lam: float) -> float:
    """I(lambda) = int_0^lambda (e^z - 1)/z dz by adaptive quadrature."""
    val, _ = quad(lambda z: np.expm1(z) / z if z != 0.0 else 1.0, 0.0, lam,
                  limit=200)
    return float(val)
