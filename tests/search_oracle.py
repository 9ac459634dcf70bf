"""Reference (alpha, d0) searches: one scalar evaluation per lattice point.

The package evaluates the d0-only terms of the bound (K(d0), F(d0), phi(d0)
and the C' integral) once per d0.  This module keeps the straightforward
form as a test oracle: every (alpha, d0) point recomputes C, C' and the four
admissibility conditions from F_of and phi_of, the grid search builds an
admissibility report for every lattice point, and the convexity search
calls the scalar log prefactor per alpha.  The searches must agree with the
package bit for bit: the same winner, or the same failure reports in the
same order.  One departure from the original loop: where s^2 K(d0)
underflows to 0 (a subnormal K(d0)), the alpha cap is 2/s^2 and the report's
limit is +inf, where the loop divided by zero.
"""
from __future__ import annotations

import math

import numpy as np

from ricci_bounds.bounds import (GRID_POINTS, BoundParams, F_of, _exp_or_inf,
                                 _ln_one_minus_exp, paper_default_d0, phi_of)
from ricci_bounds.errors import InadmissibleParamsError, InfeasibleSearchError


def ln_C(profile, alpha, d0):
    s2 = profile.s2
    kd0 = float(profile.envelope(d0))
    t = alpha * s2 * kd0
    if t >= 1.0:
        raise InadmissibleParamsError(
            f"alpha*s^2*K(d0) = {t:.6g} >= 1: C is undefined there")
    f = F_of(profile, d0)
    return (-alpha * f * f * (1.0 - alpha * s2 / (2.0 * (1.0 - t)))
            - 0.5 * math.log1p(-t))


def ln_Cprime(profile, alpha, d0):
    lo = d0 - F_of(profile, d0)
    hi = profile.j0 + profile.epsilon
    if hi <= lo:
        return 0.0
    fd0 = F_of(profile, d0)
    total = fd0 * max(0.0, min(hi, d0) - lo)
    if hi > d0:
        total += phi_of(profile, hi) - phi_of(profile, d0)
    return alpha * total


def ln_prefactor(profile, alpha, d0):
    ln_c = ln_C(profile, alpha, d0)
    if ln_c >= 0:
        return math.inf
    return ln_Cprime(profile, alpha, d0) + ln_c - _ln_one_minus_exp(ln_c)


def admissibility(profile, alpha, d0, strategy):
    s2 = profile.s2
    kd0 = float(profile.envelope(d0))
    fd0 = F_of(profile, d0)
    c1 = d0 >= 2 * profile.epsilon - 1e-12
    c2 = fd0 > s2 * kd0 / 2.0
    c3 = alpha * s2 * kd0 < 1.0
    if c3:
        ln_c = ln_C(profile, alpha, d0)
        c4 = ln_c < 0.0
        c_val = _exp_or_inf(ln_c)
    else:
        c4 = False
        c_val = math.inf
    report = {
        "d0_ge_2eps": {"holds": bool(c1), "d0": d0, "two_eps": 2 * profile.epsilon},
        "F_exceeds_half_s2K": {"holds": bool(c2), "F_d0": fd0, "s2K_half": s2 * kd0 / 2.0},
        "alpha_below_inverse_s2K": {"holds": bool(c3), "alpha": alpha,
                                    "limit": math.inf if s2 * kd0 == 0 else 1.0 / (s2 * kd0)},
        "C_below_one": {"holds": bool(c4), "C": c_val},
    }
    return BoundParams(alpha=alpha, d0=d0, epsilon=profile.epsilon,
                       admissible=bool(c1 and c2 and c3 and c4),
                       admissibility_report=report, strategy=strategy)


def alpha_grid(profile, d0, count):
    s2 = profile.s2
    kd0 = float(profile.envelope(d0))
    a_max = 2.0 / s2 if s2 * kd0 <= 0 else min(1.0 / (s2 * kd0), 2.0 / s2)
    return np.geomspace(a_max / 1000.0, a_max * (1.0 - 1e-9), count)


def grid_search(profile, reference_level=None):
    """search_params(profile, "grid", ...), one admissibility call per point."""
    default_d0 = paper_default_d0(profile)
    if reference_level is None:
        reference_level = 2.0 * default_d0
    d0_values = list(np.linspace(
        2.0 * profile.epsilon,
        2.0 * profile.epsilon + 10.0 * (profile.rho + profile.s2 / profile.rho),
        GRID_POINTS))
    d0_values.append(default_d0)
    best = None
    failures = []
    phi_ref = phi_of(profile, reference_level)
    for d0 in d0_values:
        if d0 > reference_level:
            failures.append({"d0": d0, "reason": "d0 beyond reference level"})
            continue
        phi_d0 = phi_of(profile, d0)
        for alpha in alpha_grid(profile, d0, GRID_POINTS):
            params = admissibility(profile, float(alpha), float(d0), "grid")
            if not params.admissible:
                failures.append(params.admissibility_report)
                continue
            val = ln_prefactor(profile, alpha, d0) - alpha * (phi_ref - phi_d0)
            if best is None or val < best[0]:
                best = (val, params)
    if best is None:
        raise InfeasibleSearchError(
            "no admissible (alpha, d0) pair on the search lattice "
            "(on every candidate either C >= 1 or the drift condition fails); "
            "the bound gives nothing here",
            report=failures[:64])
    return best[1]


def convexity_search(profile):
    """search_params(profile, "alpha_convexity") on the scalar prefactor."""
    d0 = paper_default_d0(profile)
    lo, hi = 0.0, float(alpha_grid(profile, d0, 2)[-1])

    def objective(alpha):
        return ln_prefactor(profile, alpha, d0)

    probe = np.linspace(lo + (hi - lo) * 1e-4, hi * (1 - 1e-9), 64)
    finite = [a for a in probe if objective(a) < math.inf]
    if not finite:
        params = admissibility(profile, probe[len(probe) // 2], d0, "alpha_convexity")
        raise InfeasibleSearchError(
            f"no alpha makes C < 1 at d0 = {d0:.6g} (the drift F(d0) is "
            "too weak against s^2 K(d0))",
            report=[params.admissibility_report])
    a_lo, a_hi = min(finite), max(finite)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = a_hi - invphi * (a_hi - a_lo)
    x2 = a_lo + invphi * (a_hi - a_lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(200):
        if a_hi - a_lo < 1e-12 * max(1.0, a_hi):
            break
        if f1 <= f2:
            a_hi, x2, f2 = x2, x1, f1
            x1 = a_hi - invphi * (a_hi - a_lo)
            f1 = objective(x1)
        else:
            a_lo, x1, f1 = x1, x2, f2
            x2 = a_lo + invphi * (a_hi - a_lo)
            f2 = objective(x2)
    params = admissibility(profile, (a_lo + a_hi) / 2.0, d0, "alpha_convexity")
    if not params.admissible:
        raise InfeasibleSearchError(
            "convexity search ended on an inadmissible point",
            report=[params.admissibility_report])
    return params
