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

import itertools
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chain_model import DIST_TOL, MetricChain, check_origin
from .errors import DegenerateKernelError, EmptyAnnulusError
from .stepfun import StepFunction
from .transport import w1_flow, w1_to_point
# not called here: kept only as the trace target bench/tracing.py patches
from .transport import w1_line  # noqa: F401

# Point pairs per block of `subgaussian_s2`: about 2^19, as the other row blocks.
_S2_PAIRS = 1 << 19
# Entries per window of the line route's CDF scan (about 2^16, 512 KB), cut
# into whole multiples of _WINDOW_ROWS rows and never under _WINDOW_ROWS rows,
# so past 1024 states a window is 64 n entries; `_pair_curvature_line` says
# why 64.
_WINDOW_ENTRIES = 1 << 16
_WINDOW_ROWS = 64


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

    In coordinate order d grows with the offset between two points, so the
    in-ball offsets are 1..K, up to the first offset whose pairs all lie
    outside the ball.  The rows are then scanned in windows of a multiple of
    _WINDOW_ROWS rows, the larger of _WINDOW_ROWS rows and about
    _WINDOW_ENTRIES entries (64 n past 1024 states), the last of which takes
    more than K rows: a window cumulates the kernel rows of its points and of
    the K points after them, and subtracts the CDFs at each offset into one
    buffer.  The route so holds O((rows + K) n) floats, not n x n ones.  The
    pairs come out offset by offset, in row order within each.

    Why windows of a multiple of 64 rows: the product |F_x - F_y| @ gaps is a
    BLAS gemv, whose kernel sums rows in groups of 4, the rows left over in
    an order set by how many are left, and whose threads each take an even
    share of a call's rows.  A window that starts at a multiple of 64 keeps
    every row in the group it has in one product over all rows on one
    thread, and its 64 rows split among 2 or 4 threads on group boundaries;
    the last window, past K rows, never makes a one-row product, which numpy
    hands to ddot instead.  So every kappa has the bits of that one product
    (tests/reference_oracles.py keeps it); windows not aligned to 4 move bits.
    """
    n = chain.n
    order = np.argsort(chain.coords, kind="stable")
    gaps = np.diff(chain.coords[order])
    ball = []   # per offset: the pairs' distances and which of them lie in the ball
    for off in range(1, n):
        d = chain.dist[order[:-off], order[off:]]
        near = d <= epsilon + DIST_TOL
        if not near.any():
            break
        ball.append((d, near))
    rows = max(1, _WINDOW_ENTRIES // (n * _WINDOW_ROWS)) * _WINDOW_ROWS
    tops = [0, *(top for top in range(rows, n - 1, rows) if top < n - 1 - len(ball))]
    ends = tops[1:] + [n - 1]
    # |F_x - F_y| of a window's pairs at one offset, in rows of n as the
    # product over all rows has them, so that the product makes the same call
    buf = np.empty((max(end - top for top, end in zip(tops, ends)), n))
    found = [[] for _ in ball]
    for top, end in zip(tops, ends):
        cdf = chain.kernel[np.ix_(order[top:end + len(ball)], order)]
        np.cumsum(cdf, axis=1, out=cdf)
        for off, ((d, near), pairs) in enumerate(zip(ball, found), start=1):
            # rows of the window with a pair at this offset: the whole window
            # but in the last, which has more than len(ball) rows, so m > 1
            # unless the one window holds every row and off = n - 1
            m = min(end, n - off) - top
            gap_cdf = np.subtract(cdf[:m], cdf[off:off + m], out=buf[:m])
            w1 = np.abs(gap_cdf, out=gap_cdf)[:, :-1] @ gaps
            sel = near[top:top + m]
            pairs.append((order[top:top + m][sel], order[top + off:top + off + m][sel],
                          1.0 - w1[sel] / d[top:top + m][sel]))
    empty = (np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))
    return tuple(map(np.concatenate, zip(empty, *itertools.chain(*found))))


def _pair_curvature_lp(chain: MetricChain, epsilon: float):
    """(xs, ys, kappa) of every pair at 0 < d <= eps, from certified transport
    LPs solved in block-diagonal batches."""
    d = chain.dist
    xs, ys = np.nonzero(np.triu((d > 0) & (d <= epsilon + DIST_TOL)))
    return xs, ys, 1.0 - w1_flow(chain, xs, ys)[0] / d[xs, ys]


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
    the certified solver in block-diagonal batches (`w1_flow`), each
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
    chain.  The largest support diameter is the largest distance over the
    pairs (a, b) that share some row's support: the nonzeros of S^T S, with S
    the support pattern of the kernel, and the same float, since max is
    exact.  Rows with c support points are gathered together, as an m x c
    matrix of their supports, in blocks of about _S2_PAIRS pairs; a row with
    more than _S2_PAIRS pairs spans blocks of its first points.
    """
    if chain.gaussian_variance is not None:
        return float(chain.gaussian_variance)
    rows, cols = np.nonzero(chain.kernel > 0)
    size = np.bincount(rows, minlength=chain.n)
    first = np.cumsum(size) - size
    diam = 0.0
    for c in np.unique(size).tolist():
        starts = first[size == c]
        step, part = max(1, _S2_PAIRS // (c * c)), max(1, _S2_PAIRS // c)
        for r in range(0, starts.size, step):
            supp = cols[starts[r:r + step, None] + np.arange(c)]
            for a in range(0, c, part):
                pairs = chain.dist[supp[:, a:a + part, None], supp[:, None, :]]
                diam = max(diam, float(pairs.max()))
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
