"""Coarse Ricci curvature: the local infimum K_eps and its non-increasing envelope.

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
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_array

from .chain_model import DIST_TOL, MetricChain, check_origin
from .errors import DegenerateKernelError, EmptyAnnulusError
from .stepfun import StepFunction
from .transport import w1_flow_batch, w1_to_point
# not called here: kept only as the two trace targets bench/tracing.py patches
from .transport import w1_flow, w1_line  # noqa: F401


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


def _pair_curvature_line(chain: MetricChain, epsilon: float):
    """(xs, ys, kappa) of every pair at 0 < d <= eps, by the CDF identity.

    One offset at a time in coordinate order, where d grows with the offset,
    so the scan stops at the first offset whose pairs all lie outside the ball.
    """
    order = np.argsort(chain.coords, kind="stable")
    gaps = np.diff(chain.coords[order])
    cdf = chain.kernel[np.ix_(order, order)]
    np.cumsum(cdf, axis=1, out=cdf)
    pairs = [(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))]
    for off in range(1, chain.n):
        d = chain.dist[order[:-off], order[off:]]
        near = d <= epsilon + DIST_TOL
        if not near.any():
            break
        w1 = np.abs(cdf[:-off] - cdf[off:])[:, :-1] @ gaps
        pairs.append((order[:-off][near], order[off:][near], 1.0 - w1[near] / d[near]))
    return tuple(map(np.concatenate, zip(*pairs)))


def _pair_curvature_lp(chain: MetricChain, epsilon: float):
    """(xs, ys, kappa) of every pair at 0 < d <= eps, from certified transport
    LPs solved in block-diagonal batches."""
    d = chain.dist
    xs, ys = np.nonzero(np.triu((d > 0) & (d <= epsilon + DIST_TOL)))
    return xs, ys, 1.0 - w1_flow_batch(chain, xs, ys)[0] / d[xs, ys]


def local_curvature(chain: MetricChain, epsilon: float,
                    radii: Optional[Sequence[float]] = None) -> np.ndarray:
    """K_eps(x) = inf over 0 < d(x,y) <= eps of kappa(x, y), per point.

    Points whose eps-ball is empty get +inf (the infimum over an empty set)
    and a loud warning: that usually means eps is below the discretization
    scale.  Two routes give kappa for every pair in the ball, and one fold
    takes the minimum at both ends of each pair: every chain with coords (a
    line metric, built or loaded, uniform or not) takes the exact CDF
    identity over the points in coordinate order, cross-validated against the
    certified LP in the test suite; every other chain sends its pairs through
    the certified solver in block-diagonal batches (`w1_flow_batch`), each
    pair with its own duality certificate.

    Given `radii` (none above eps), the result has one row K_r per radius r,
    each folded over the pairs at d <= r of the same pass: kappa(x, y)
    belongs to the pair, not to the radius.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    route = _pair_curvature_line if chain.coords is not None else _pair_curvature_lp
    xs, ys, kap = route(chain, epsilon)
    d = chain.dist[xs, ys]
    rows = [epsilon] if radii is None else radii
    kloc = np.full((len(rows), chain.n), np.inf)
    for k, r in zip(kloc, rows):
        near = d <= r + DIST_TOL
        np.minimum.at(k, xs[near], kap[near])
        np.minimum.at(k, ys[near], kap[near])
        isolated = np.isinf(k)
        if np.any(isolated):
            warnings.warn(
                f"{int(isolated.sum())} point(s) have no neighbour within "
                f"eps={r}; K_eps is vacuous (+inf) there",
                stacklevel=2)
    return kloc[0] if radii is None else kloc


def curvature_envelope(chain: MetricChain, origin: int,
                       kappa_local: np.ndarray) -> StepFunction:
    """Largest non-increasing, nonnegative K with K(d(x, x0)) <= K_eps(x) for all x.

    `kappa_local` is K_eps per point, as `local_curvature` returns it.
    Materialized at the sorted distinct realized distances (a radius within
    DIST_TOL of the one before it joins its breakpoint): the per-distance
    infimum of K_eps, swept by a running minimum (non-increasing), clamped at
    zero (the theorems need K >= 0).
    """
    if np.all(np.isinf(kappa_local)):
        raise ValueError("every point is isolated at this epsilon; increase it")
    order = np.argsort(chain.dist[origin], kind="stable")
    r = chain.dist[origin, order]
    starts = np.concatenate([[0], 1 + np.flatnonzero(r[1:] > r[:-1] + DIST_TOL)])
    swept = np.minimum.accumulate(np.minimum.reduceat(kappa_local[order], starts))
    if np.isinf(swept[0]):
        # leading isolated radii impose no constraint; hold the first real value
        first = int(np.argmin(np.isinf(swept)))
        swept[:first] = swept[first]
    return StepFunction(r[starts], np.maximum(swept, 0.0))


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
        advice = ("eps exceeds every distance from the origin; use a smaller epsilon"
                  if d.max() < epsilon - DIST_TOL else "use a larger epsilon")
        raise EmptyAnnulusError(
            f"no point with eps <= d(x, origin) <= 2*eps for eps={epsilon}; {advice}")
    drifts = d[annulus] - chain.kernel[annulus] @ d
    return float(drifts.min())


def subgaussian_s2(chain: MetricChain) -> float:
    """Sub-Gaussian constant s^2 valid for every kernel row.

    The variance declared by a Gaussian builder when the chain has one; else
    the Hoeffding support bound, max over rows of (support diameter)^2 / 4 --
    the range of a 1-Lipschitz function on the support is at most its metric
    diameter, so this is the tightest generic Hoeffding constant on a finite
    chain.  The largest support diameter is the largest distance between two
    points that share some row's support: the nonzeros of S^T S, with S the
    support pattern of the kernel.
    """
    if chain.gaussian_variance is not None:
        return float(chain.gaussian_variance)
    supp = csr_array(chain.kernel > 0)
    diam = float(chain.dist[(supp.T @ supp).nonzero()].max())
    s2 = diam * diam / 4.0
    if s2 <= 0:
        raise DegenerateKernelError(
            "every kernel row is a point mass; s^2 = 0 is degenerate")
    return s2


def curvature_profiles(chain: MetricChain, epsilons: Sequence[float], origin: int) -> list:
    """The curvature profile at each eps in `epsilons`, in order; an eps whose
    annulus is empty gets its EmptyAnnulusError in place of a profile.

    Every rho comes first: it reads one row of dist, so an empty annulus
    costs no transport, and the one pair pass runs at the largest eps that
    has a profile.  Every K_eps is folded from that pass; j0 and s^2 do not
    depend on eps and are computed once.
    """
    check_origin(chain, origin)
    rhos = []
    for eps in epsilons:
        try:
            rhos.append(attraction_rho(chain, eps, origin))
        except EmptyAnnulusError as exc:
            rhos.append(exc)
    radii = [eps for eps, rho in zip(epsilons, rhos) if not isinstance(rho, EmptyAnnulusError)]
    if not radii:
        return rhos
    kappa_local = iter(local_curvature(chain, max(radii), radii))
    j0 = w1_to_point(chain, origin, origin)
    s2 = subgaussian_s2(chain)
    profiles = []
    for eps, rho in zip(epsilons, rhos):
        if isinstance(rho, EmptyAnnulusError):
            profiles.append(rho)
            continue
        kloc = next(kappa_local)
        profiles.append(CurvatureProfile(epsilon=float(eps), origin=int(origin),
                                         kappa_local=kloc,
                                         envelope=curvature_envelope(chain, origin, kloc),
                                         rho=rho, j0=j0, s2=s2))
    return profiles


def curvature_profile(chain: MetricChain, epsilon: float, origin: int) -> CurvatureProfile:
    """The full curvature profile at one (eps, origin) choice: `curvature_profiles`
    of the one eps, whose empty annulus is raised."""
    (profile,) = curvature_profiles(chain, [epsilon], origin)
    if isinstance(profile, EmptyAnnulusError):
        raise profile
    return profile
