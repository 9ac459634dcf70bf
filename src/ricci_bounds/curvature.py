"""Coarse Ricci curvature: pairwise, local, and the non-increasing envelope.

kappa(x, y) = 1 - W1(P_x, P_y)/d(x, y) per pair; K_eps(x) is its infimum
over the punctured eps-ball; the envelope K(r) is the largest non-increasing,
nonnegative function with K(d(x, x0)) <= K_eps(x) for every point, i.e. the
running minimum of the per-distance infima clamped at zero.  The profile also
carries the attraction constant rho (one-step drift toward the origin on the
annulus eps <= d <= 2*eps), the origin drift J(x0), and the sub-Gaussian
constant s^2.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain_model import DIST_TOL, MetricChain, check_origin
from .errors import DegenerateKernelError, EmptyAnnulusError
from .stepfun import StepFunction
from .transport import DiscreteMeasure, w1_flow, w1_flow_batch, w1_to_point
from .transport import w1_line  # noqa: F401  bench/tracing.py patches it here


@dataclass(frozen=True)
class CurvatureProfile:
    """Everything the bound formulas need, tied to one (eps, origin) choice."""

    epsilon: float
    origin: int
    kappa_local: np.ndarray      # K_eps per point; +inf where the eps-ball is empty
    envelope: StepFunction       # largest non-increasing nonnegative minorant K(r)
    rho: float                   # attraction constant at the origin
    j0: float                    # J(x0) = W1(P_x0, delta_x0)
    s2: float                    # sub-Gaussian constant

    def as_dict(self):
        return {
            "epsilon": self.epsilon,
            "origin": int(self.origin),
            "rho": self.rho,
            "j0": self.j0,
            "s2": self.s2,
            "kappa_local": [None if np.isinf(v) else float(v) for v in self.kappa_local],
            "envelope": self.envelope.as_dict(),
        }


def kappa_pair(chain: MetricChain, x: int, y: int) -> float:
    """1 - W1(P_x, P_y)/d(x, y), with W1 from the certified flow solver."""
    if x == y:
        raise ValueError("kappa is undefined on the diagonal (d(x,y) = 0)")
    mu = DiscreteMeasure.from_vector(chain.kernel[x])
    nu = DiscreteMeasure.from_vector(chain.kernel[y])
    return 1.0 - w1_flow(mu, nu, chain) / chain.dist[x, y]


def _local_curvature_line(chain: MetricChain, epsilon: float) -> np.ndarray:
    """K_eps on a line metric by the CDF identity, one offset at a time.

    In coordinate order d grows with the offset, so the scan stops at the
    first offset whose pairs all lie outside the eps-ball.
    """
    n = chain.n
    order = np.argsort(chain.coords, kind="stable")
    gaps = np.diff(chain.coords[order])
    cdf = chain.kernel[np.ix_(order, order)]
    np.cumsum(cdf, axis=1, out=cdf)
    kloc = np.full(n, np.inf)
    for off in range(1, n):
        d = chain.dist[order[:-off], order[off:]]
        near = d <= epsilon + DIST_TOL
        if not near.any():
            break
        w1 = np.abs(cdf[:-off] - cdf[off:])[:, :-1] @ gaps
        # pairs outside the ball impose nothing: ratio -inf
        kap = 1.0 - np.divide(w1, d, out=np.full(n - off, -np.inf), where=near)
        np.minimum(kloc[: n - off], kap, out=kloc[: n - off])
        np.minimum(kloc[off:], kap, out=kloc[off:])
    return kloc[np.argsort(order)]


def _local_curvature_lp(chain: MetricChain, epsilon: float) -> np.ndarray:
    """K_eps from certified transport LPs, solved in block-diagonal batches."""
    d = chain.dist
    xs, ys = np.nonzero(np.triu((d > 0) & (d <= epsilon + DIST_TOL)))
    rows = [DiscreteMeasure.from_vector(chain.kernel[i]) for i in range(chain.n)]
    pairs = [(rows[x], rows[y]) for x, y in zip(xs, ys)]
    w1 = [cert.value for cert in w1_flow_batch(pairs, chain)]
    kap = 1.0 - np.asarray(w1, dtype=float) / d[xs, ys]
    kloc = np.full(chain.n, np.inf)
    np.minimum.at(kloc, xs, kap)
    np.minimum.at(kloc, ys, kap)
    return kloc


def local_curvature(chain: MetricChain, epsilon: float) -> np.ndarray:
    """K_eps(x) = inf over 0 < d(x,y) <= eps of kappa(x, y), per point.

    Points whose eps-ball is empty get +inf (the infimum over an empty set)
    and a loud warning: that usually means eps is below the discretization
    scale.  Two routes: every chain with coords (a line metric, built or
    loaded, uniform or not) takes the exact CDF identity over the points in
    coordinate order, cross-validated against the certified LP in the test
    suite; every other chain sends its pairs through the certified solver in
    block-diagonal batches (`w1_flow_batch`), each pair with its own duality
    certificate.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if chain.coords is not None:
        kloc = _local_curvature_line(chain, epsilon)
    else:
        kloc = _local_curvature_lp(chain, epsilon)
    isolated = np.isinf(kloc)
    if np.any(isolated):
        warnings.warn(
            f"{int(isolated.sum())} point(s) have no neighbour within "
            f"eps={epsilon}; K_eps is vacuous (+inf) there",
            stacklevel=2)
    return kloc


def curvature_envelope(chain: MetricChain, origin: int,
                       kappa_local: np.ndarray) -> StepFunction:
    """Largest non-increasing, nonnegative K with K(d(x, x0)) <= K_eps(x) for all x.

    `kappa_local` is K_eps per point, as `local_curvature` returns it.
    Materialized at the sorted distinct realized distances: the per-distance
    infimum of K_eps, swept by a running minimum (non-increasing), clamped at
    zero (the theorems need K >= 0).
    """
    if np.all(np.isinf(kappa_local)):
        raise ValueError("every point is isolated at this epsilon; increase it")
    d = chain.dist[origin]
    order = np.argsort(d, kind="stable")
    breakpoints, values = [], []
    for i in order:
        r = d[i]
        if not breakpoints or r > breakpoints[-1] + DIST_TOL:
            breakpoints.append(r)
            values.append(kappa_local[i])
        else:
            values[-1] = min(values[-1], kappa_local[i])
    swept = np.minimum.accumulate(np.asarray(values, dtype=float))
    if np.isinf(swept[0]):
        # leading isolated radii impose no constraint; hold the first real value
        first = int(np.argmin(np.isinf(swept)))
        swept[:first] = swept[first]
    swept = np.maximum(swept, 0.0)
    return StepFunction(np.asarray(breakpoints, dtype=float), swept)


def attraction_rho(chain: MetricChain, epsilon: float, origin: int) -> float:
    """inf over eps <= d(x, x0) <= 2*eps of d(x, x0) - W1(P_x, delta_x0).

    W1 to a point mass is the expected distance, so the infimum is exact.
    The annulus is taken closed on both sides: on the discrete example chains
    this reproduces the continuum infimum over distances just above eps, and
    any smaller-than-true rho keeps the attractiveness hypothesis valid.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = chain.dist[origin]
    annulus = np.nonzero((d >= epsilon - DIST_TOL)
                         & (d <= 2 * epsilon + DIST_TOL) & (d > 0))[0]
    if annulus.size == 0:
        raise EmptyAnnulusError(
            f"no point with eps <= d(x, origin) <= 2*eps for eps={epsilon}; "
            "use a larger epsilon")
    drifts = d[annulus] - chain.kernel[annulus] @ d
    return float(drifts.min())


def subgaussian_s2(chain: MetricChain) -> float:
    """Sub-Gaussian constant s^2 valid for every kernel row.

    The variance declared by a Gaussian builder when the chain has one; else
    the Hoeffding support bound, max over rows of (support diameter)^2 / 4 --
    the range of a 1-Lipschitz function on the support is at most its metric
    diameter, so this is the tightest generic Hoeffding constant on a finite
    chain.
    """
    if chain.gaussian_variance is not None:
        return float(chain.gaussian_variance)
    s2 = 0.0
    for i in range(chain.n):
        supp = np.nonzero(chain.kernel[i])[0]
        diam = float(chain.dist[np.ix_(supp, supp)].max())
        s2 = max(s2, diam * diam / 4.0)
    if s2 <= 0:
        raise DegenerateKernelError(
            "every kernel row is a point mass; s^2 = 0 is degenerate")
    return s2


def curvature_profile(chain: MetricChain, epsilon: float,
                      origin: Optional[int] = None) -> CurvatureProfile:
    """Assemble the full curvature profile at one (eps, origin) choice."""
    if origin is None:
        origin = chain.origin_hint
    if origin is None:
        raise ValueError("no origin given and the chain has no origin_hint")
    check_origin(chain, origin)
    kappa_local = local_curvature(chain, epsilon)
    envelope = curvature_envelope(chain, origin, kappa_local)
    rho = attraction_rho(chain, epsilon, origin)
    j0 = w1_to_point(chain, origin, origin)
    s2 = subgaussian_s2(chain)
    return CurvatureProfile(epsilon=float(epsilon), origin=int(origin),
                            kappa_local=kappa_local, envelope=envelope,
                            rho=rho, j0=j0, s2=s2)
