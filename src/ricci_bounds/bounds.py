"""Concentration bounds for the equilibrium measure of a nonnegatively curved chain.

Implements the drift function F, its antiderivative phi, the double integral
Phi, the two constants C_{alpha,d0} and C'_{alpha,d0}, the general
(alpha, d0)-parameterized tail bound, the fixed-parameter bound with its
closed-form constant C0, parameter search (paper default / admissible grid /
convexity line search in alpha), and the epsilon sweep exposing the
rho-versus-curvature trade-off.

All integrals of the piecewise-constant envelope are evaluated in closed
form; quadrature exists only as a test-side oracle.  The (alpha, d0)
helpers take floats or broadcasting arrays, and take log1p and ln(1 - e^x)
from libm entry by entry, as numpy's differ from it in the last bit.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .chain_model import DIST_TOL, MetricChain, check_epsilon_geodesic
from .curvature import CurvatureProfile, curvature_profiles
# not called here: kept only as the trace target bench/tracing.py patches
from .curvature import curvature_profile  # noqa: F401
from .errors import (EmptyAnnulusError, InadmissibleParamsError,
                     InfeasibleSearchError, NegativeCurvatureError,
                     NoAttractivePointError)

LN2 = math.log(2.0)
GRID_POINTS = 32  # grid search: d0 values, and alpha values per d0
LEVEL_TOL = 1e-9  # slack between a bound's levels and its d0
CURVATURE_TOL = 1e-9  # a K_eps this far under 0 still counts as nonnegative


def _exp_or_inf(ln_value: float) -> float:
    """exp(ln_value) for a reported constant; +inf past the float range."""
    try:
        return math.exp(ln_value)
    except OverflowError:
        return math.inf


def _libm(f, x):
    """f from libm on each entry of x, in x's shape (0-d for a float)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def _ln_one_minus_exp(x: float) -> float:
    """ln(1 - e^x) for x <= 0, also where e^x rounds to 1; -inf at x == 0."""
    if x == 0.0:
        return -math.inf
    if math.exp(x) == 1.0:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


@dataclass(frozen=True)
class BoundParams:
    """A candidate (alpha, d0) pair with its admissibility breakdown.

    The four conditions: d0 >= 2*eps; F(d0) > s^2 K(d0)/2; alpha < 1/(s^2 K(d0));
    C_{alpha,d0} < 1.  `admissible` is their conjunction.
    """

    alpha: float
    d0: float
    epsilon: float
    admissible: bool
    admissibility_report: dict
    strategy: str = "manual"

    def as_dict(self):
        return asdict(self)


@dataclass
class TailCurve:
    """A sampled map level -> probability (bound or empirical)."""

    levels: np.ndarray
    values: np.ndarray
    kind: str  # theorem1 | theorem_princ | empirical

    def clamped(self) -> np.ndarray:
        """Values clamped into [0, 1] for plotting; raw values stay in `values`."""
        return np.minimum(self.values, 1.0)


# ---------------------------------------------------------------------------
# F, phi, Phi
# ---------------------------------------------------------------------------

def F_of(profile: CurvatureProfile, l):
    """Guaranteed one-step drift at distance l from the origin.

    -J(x0) on [0, eps]; rho on (eps, 2*eps); rho + int_{2eps}^{l} K beyond.
    A float l gives a float; an array l is evaluated elementwise.
    """
    eps = profile.epsilon
    l = np.asarray(l, dtype=float)
    env = profile.envelope
    beyond = profile.rho + (env.antiderivative(l) - env.antiderivative(2 * eps))
    out = np.where(l <= eps, -profile.j0, np.where(l < 2 * eps, profile.rho, beyond))
    return float(out) if out.ndim == 0 else out


def phi_of(profile: CurvatureProfile, l):
    """phi(l) = int_0^l F(u) du, exact (F is piecewise linear); l may be an array."""
    eps = profile.epsilon
    l = np.asarray(l, dtype=float)
    val = (-profile.j0 * np.minimum(l, eps)
           + profile.rho * (np.clip(l, eps, 2 * eps) - eps)
           + profile.rho * np.maximum(l - 2 * eps, 0.0)
           + profile.envelope.double_integral(2 * eps, l))
    return float(val) if val.ndim == 0 else val


def Phi_of(profile: CurvatureProfile, l):
    """Phi(l) = rho*l + int_{2eps}^l int_{2eps}^u K(v) dv du, for l >= 2*eps (an array too)."""
    eps = profile.epsilon
    l = np.asarray(l, dtype=float)
    if l.size and float(l.min()) < 2 * eps - DIST_TOL:
        raise ValueError(f"Phi is defined for l >= 2*eps = {2 * eps}, got {l.min()}")
    val = profile.rho * l + profile.envelope.double_integral(2 * eps, l)
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# The two constants and admissibility
# ---------------------------------------------------------------------------

class _AtD0(NamedTuple):
    """The alpha-free terms of every (alpha, d0) quantity, at a d0 or an array of them."""

    kd0: float          # K(d0)
    fd0: float          # F(d0)
    phi_d0: float       # phi(d0)
    rate: float         # ln C'_{alpha,d0} = alpha * rate
    s2K: float          # s^2 K(d0)
    limit: float        # 1/(s^2 K(d0)), +inf where that product is 0
    d0_ge_2eps: bool


# Past the float range these helpers give inf or nan, as float arithmetic does.
@np.errstate(all="ignore")
def _at_d0(profile: CurvatureProfile, d0) -> _AtD0:
    kd0 = profile.envelope(d0)
    s2K = profile.s2 * kd0
    fd0 = F_of(profile, d0)
    phi_d0 = phi_of(profile, d0)
    lo, hi = d0 - fd0, profile.j0 + profile.epsilon
    # the C' integrand is max(F(d0), F(u)) on [lo, hi]; F is
    # non-decreasing, so it is F(d0) up to u = d0 and F(u) beyond
    span = np.where(hi > d0, d0, hi) - lo
    rate = fd0 * np.where(span > 0.0, span, 0.0)
    rate = np.where(hi > d0, rate + (phi_of(profile, hi) - phi_d0), rate)
    return _AtD0(kd0, fd0, phi_d0, np.where(hi > lo, rate, 0.0)[()], s2K,
                 np.where(s2K > 0, np.divide(1.0, s2K), math.inf)[()],
                 d0 >= 2 * profile.epsilon - DIST_TOL)


@np.errstate(all="ignore")
def _ln_C(profile: CurvatureProfile, at: _AtD0, alpha):
    t = alpha * profile.s2 * at.kd0
    if not np.all(t < 1.0):
        raise InadmissibleParamsError(
            f"alpha*s^2*K(d0) = {np.max(t):.6g} >= 1: C is undefined there")
    f = at.fd0
    return (-alpha * f * f * (1.0 - alpha * profile.s2 / (2.0 * (1.0 - t)))
            - 0.5 * _libm(math.log1p, -t))


@np.errstate(all="ignore")
def _ln_prefactor(profile: CurvatureProfile, at: _AtD0, alpha):
    """ln(C' C/(1-C)); +inf where C >= 1 or is undefined."""
    ln_c = _conditions(profile, at, alpha)[1]
    undefined = ln_c >= 0
    tail = _libm(_ln_one_minus_exp, np.where(undefined, -1.0, ln_c))
    return np.where(undefined, math.inf, alpha * at.rate + ln_c - tail)[()]


@np.errstate(all="ignore")
def _ln_bound(profile: CurvatureProfile, at: _AtD0, alpha, phi_l):
    """ln of the general bound C' C/(1-C) exp(-alpha (phi(l) - phi(d0)))."""
    return _ln_prefactor(profile, at, alpha) - alpha * (phi_l - at.phi_d0)


@np.errstate(all="ignore")
def _conditions(profile: CurvatureProfile, at: _AtD0, alpha):
    """The four admissibility conditions, and ln C (+inf where C is undefined)."""
    c3 = alpha * profile.s2 * at.kd0 < 1.0
    ln_c = np.where(c3, _ln_C(profile, at, np.where(c3, alpha, 0.0)), math.inf)[()]
    return (at.d0_ge_2eps, at.fd0 > at.s2K / 2.0, c3, ln_c < 0.0), ln_c


def admissibility(profile: CurvatureProfile, alpha: float, d0: float,
                  strategy: str = "manual") -> BoundParams:
    """Evaluate the four admissibility conditions for an (alpha, d0) pair."""
    at = _at_d0(profile, d0)
    (c1, c2, c3, c4), ln_c = _conditions(profile, at, alpha)
    report = {
        "d0_ge_2eps": {"holds": bool(c1), "d0": d0, "two_eps": 2 * profile.epsilon},
        "F_exceeds_half_s2K": {"holds": bool(c2), "F_d0": at.fd0, "s2K_half": at.s2K / 2.0},
        "alpha_below_inverse_s2K": {"holds": bool(c3), "alpha": alpha, "limit": at.limit},
        "C_below_one": {"holds": bool(c4), "C": _exp_or_inf(ln_c)},
    }
    return BoundParams(alpha=alpha, d0=d0, epsilon=profile.epsilon,
                       admissible=bool(c1 and c2 and c3 and c4),
                       admissibility_report=report, strategy=strategy)


# ---------------------------------------------------------------------------
# Bound curves
# ---------------------------------------------------------------------------

def bound_princ(profile: CurvatureProfile, params: BoundParams,
                levels: Sequence[float]) -> TailCurve:
    """Tail bound C' * C/(1-C) * exp(-alpha (phi(l) - phi(d0))) for l >= d0.

    Raw values are kept even when they exceed 1; the clamped companion is
    available from the curve object.
    """
    _check_curvature(profile)
    if not params.admissible:
        raise InadmissibleParamsError(
            "bound requested with inadmissible (alpha, d0)",
            report=params.admissibility_report)
    levels = np.asarray(levels, dtype=float)
    if levels.size and float(levels.min()) < params.d0 - LEVEL_TOL:
        raise ValueError(f"levels must be >= d0 = {params.d0}")
    ln_vals = _ln_bound(profile, _at_d0(profile, params.d0), params.alpha,
                        phi_of(profile, levels))
    with np.errstate(over="ignore"):  # past the float range the bound is +inf
        values = np.exp(ln_vals)
    return TailCurve(levels=levels, values=values, kind="theorem_princ")


def _check_curvature(profile: CurvatureProfile) -> None:
    """The theorems need K_eps >= 0 at every point: where K_eps(x) < 0 the
    envelope, clamped at 0, is not at most K_eps(x), and no bound follows."""
    x = int(np.argmin(profile.kappa_local))
    if profile.kappa_local[x] < -CURVATURE_TOL:
        raise NegativeCurvatureError(
            f"K_eps = {profile.kappa_local[x]:.6g} < 0 at point {x} (eps = "
            f"{profile.epsilon}): the theorems need nonnegative curvature")


def paper_default_d0(profile: CurvatureProfile) -> float:
    """d0 = 2*eps + ln(2) s^2 / rho of the fixed-parameter theorem."""
    _check_curvature(profile)
    if profile.rho <= 0:
        raise NoAttractivePointError(
            f"rho = {profile.rho:.6g} <= 0: no attractive point at eps = "
            f"{profile.epsilon}; increase eps or abort")
    return 2.0 * profile.epsilon + LN2 * profile.s2 / profile.rho


def theorem1_params(profile: CurvatureProfile) -> BoundParams:
    """The fixed choice alpha = 1/(2 s^2), d0 = 2*eps + ln(2) s^2 / rho."""
    d0 = paper_default_d0(profile)
    alpha = 1.0 / (2.0 * profile.s2)
    # holds automatically (kappa <= 1 pointwise), asserted rather than assumed
    assert float(profile.envelope(d0)) <= 1.0 + 1e-12
    return admissibility(profile, alpha, d0, strategy="paper_default")


def ln_C0_of(profile: CurvatureProfile) -> float:
    """log of the closed-form constant in the fixed-parameter tail bound."""
    d0 = paper_default_d0(profile)
    s2, rho, eps = profile.s2, profile.rho, profile.epsilon
    numerator = ((3.0 * eps / (2.0 * s2)) * max(3.0 * eps, rho + LN2 * s2 / rho)
                 - rho * rho / (4.0 * s2)
                 + Phi_of(profile, d0) / (2.0 * s2))
    return numerator - _ln_one_minus_exp(-rho * rho / (4.0 * s2))


def bound_theorem1(profile: CurvatureProfile, levels: Sequence[float]) -> TailCurve:
    """Tail bound C0 * exp(-Phi(l) / (2 s^2)) for l > 2*eps + ln(2) s^2 / rho.

    The closed-form C0 is evaluated exactly.  The general bound at the same
    parameters, bound_princ(profile, theorem1_params(profile), levels), is
    provably at most this one.
    """
    d0 = paper_default_d0(profile)
    levels = np.asarray(levels, dtype=float)
    if levels.size and float(levels.min()) <= d0 - LEVEL_TOL:
        raise ValueError(f"levels must be > d0 = {d0}")
    ln_c0 = ln_C0_of(profile)
    s2 = profile.s2
    with np.errstate(over="ignore"):  # past the float range the bound is +inf
        values = np.exp(ln_c0 - Phi_of(profile, levels) / (2.0 * s2))
    return TailCurve(levels=levels, values=values, kind="theorem1")


# ---------------------------------------------------------------------------
# Parameter search
# ---------------------------------------------------------------------------

def search_params(profile: CurvatureProfile, strategy: str = "paper_default",
                  reference_level: Optional[float] = None) -> BoundParams:
    """Choose (alpha, d0).

    paper_default: alpha = 1/(2 s^2), d0 = 2*eps + ln(2) s^2 / rho.
    grid: minimize the raw bound at `reference_level` over a lattice of
      GRID_POINTS geometric alpha values per d0 (capped at min(1/(s^2 K(d0)),
      2/s^2)) and GRID_POINTS linear d0 values on [2*eps, 2*eps + 10(rho +
      s^2/rho)] plus the paper-default d0; only admissible pairs with
      d0 <= reference_level compete.
    alpha_convexity: fix d0 at the paper default and minimize the log
      prefactor ln(C' C / (1 - C)) over alpha by golden section -- valid
      because ln C is convex in alpha and the extra terms preserve convexity.
    """
    default_d0 = paper_default_d0(profile)
    if strategy == "paper_default":
        params = theorem1_params(profile)
        if not params.admissible:
            raise InfeasibleSearchError(
                "paper-default parameters are not admissible",
                report=[params.admissibility_report])
        return params

    if strategy == "alpha_convexity":
        at = _at_d0(profile, default_d0)
        lo, hi = 0.0, min(at.limit, 2.0 / profile.s2) * (1.0 - 1e-9)
        objective = functools.partial(_ln_prefactor, profile, at)
        probe = np.linspace(lo + (hi - lo) * 1e-4, hi * (1 - 1e-9), 64)
        finite = probe[objective(probe) < math.inf]
        if not finite.size:
            params = admissibility(profile, probe[len(probe) // 2], default_d0,
                                   strategy="alpha_convexity")
            raise InfeasibleSearchError(
                f"no alpha makes C < 1 at d0 = {default_d0:.6g} (the drift F(d0) is "
                "too weak against s^2 K(d0))",
                report=[params.admissibility_report])
        a_lo, a_hi = finite[0], finite[-1]
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
        best_alpha = (a_lo + a_hi) / 2.0
        params = admissibility(profile, best_alpha, default_d0, strategy="alpha_convexity")
        if not params.admissible:
            raise InfeasibleSearchError(
                "convexity search ended on an inadmissible point",
                report=[params.admissibility_report])
        return params

    if strategy != "grid":
        raise ValueError(f"unknown strategy {strategy!r}")

    if reference_level is None:
        reference_level = 2.0 * default_d0
    eps2 = 2.0 * profile.epsilon
    d0 = np.append(np.linspace(eps2, eps2 + 10.0 * (profile.rho + profile.s2 / profile.rho),
                               GRID_POINTS), default_d0)
    at = _at_d0(profile, d0[:, None])  # one row per d0, one column per alpha
    cap = np.minimum(at.limit, 2.0 / profile.s2)[:, 0]
    alpha = np.geomspace(cap / 1000.0, cap * (1.0 - 1e-9), GRID_POINTS, axis=1)
    (c1, c2, c3, c4), _ = _conditions(profile, at, alpha)
    ok = ~(d0[:, None] > reference_level) & c1 & c2 & c3 & c4
    vals = _ln_bound(profile, at, alpha, phi_of(profile, reference_level))[ok]
    if vals.size:
        # the first least value in scan order, as a strict-< scan keeps it
        # (a leading nan stays)
        row, col = np.argwhere(ok)[0 if np.isnan(vals[0]) else np.nanargmin(vals)]
        return admissibility(profile, float(alpha[row, col]), float(d0[row]), strategy="grid")

    def failures():
        for d0_i, alphas in zip(d0.tolist(), alpha.tolist()):
            if d0_i > reference_level:
                yield {"d0": d0_i, "reason": "d0 beyond reference level"}
            else:
                for a in alphas:
                    yield admissibility(profile, a, d0_i, strategy="grid").admissibility_report
    raise InfeasibleSearchError(
        "no admissible (alpha, d0) pair on the search lattice "
        "(on every candidate either C >= 1 or the drift condition fails); "
        "the bound gives nothing here",
        report=list(itertools.islice(failures(), 64)))


# ---------------------------------------------------------------------------
# Epsilon sweep
# ---------------------------------------------------------------------------

def epsilon_sweep(chain: MetricChain, origin: int, epsilons: Sequence[float],
                  reference_level: float, strategy: str = "grid") -> list:
    """One `sweep.csv` row per eps, in the order given: [eps, rho, envelope
    max, envelope support end, alpha, d0, bound at the reference level, note].

    The bound is the best one the chosen strategy finds.  A non-geodesic eps
    or an empty annulus is found from distances alone, before any transport;
    its row holds eps, NaN, an infinite bound and the note.  Every other eps
    reads its profile from one curvature pass (`curvature_profiles`).  Where
    the search finds nothing (rho <= 0 and a negative K_eps included), the
    note is the search's message.
    """
    epsilons = list(epsilons)
    geodesic = [check_epsilon_geodesic(chain, eps) is None for eps in epsilons]
    profiles = iter(curvature_profiles(chain, list(itertools.compress(epsilons, geodesic)),
                                       origin))

    def one(eps: float, is_geodesic: bool) -> list:
        if not is_geodesic:
            return [eps] + [math.nan] * 5 + [math.inf, "not eps-geodesic"]
        profile = next(profiles)
        if isinstance(profile, EmptyAnnulusError):
            return [eps] + [math.nan] * 5 + [math.inf, "empty annulus"]
        row = [eps, profile.rho, float(profile.envelope.values.max()),
               profile.envelope.support_end()]
        try:
            params = search_params(profile, strategy=strategy,
                                   reference_level=reference_level)
        except (InfeasibleSearchError, NegativeCurvatureError, NoAttractivePointError) as exc:
            return row + [math.nan, math.nan, math.inf, str(exc)]
        if params.d0 > reference_level:
            return row + [params.alpha, params.d0, math.inf, "d0 beyond reference level"]
        ln_val = _ln_bound(profile, _at_d0(profile, params.d0), params.alpha,
                           phi_of(profile, reference_level))
        return row + [params.alpha, params.d0, _exp_or_inf(ln_val), ""]

    return [one(eps, ok) for eps, ok in zip(epsilons, geodesic)]
