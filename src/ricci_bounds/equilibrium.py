"""Ground-truth stationary distributions and empirical tail curves.

Two estimators: the detailed-balance product formula (exact on tridiagonal
chains) and dense power iteration.  They agree to 1e-8 on every birth-death
instance.  `stationary_law` is the one place that picks between them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import TailCurve
from .chain_model import DIST_TOL, MetricChain
from .errors import ChainValidationError, PowerIterationError

POWER_TOL = 1e-12          # TV(v, vP) at which power iteration stops
POWER_MAX_ITERS = 200_000


@dataclass(frozen=True)
class StationaryResult:
    distribution: np.ndarray
    method: str   # birth_death_exact | power_iteration
    residual: float  # TV(pi, pi P)


def tv_distance(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _residual(chain: MetricChain, pi: np.ndarray) -> float:
    return tv_distance(pi, pi @ chain.kernel)


def birth_death_law(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Detailed balance pi(n+1)/pi(n) = up[n]/down[n] for strictly positive rates
    up[n] (n -> n+1) and down[n] (n+1 -> n), accumulated in log space so long
    chains with large mass ratios stay exact."""
    if np.any(up <= 0) or np.any(down <= 0):
        raise ChainValidationError(
            "birth-death formula needs strictly positive adjacent rates")
    log_pi = np.concatenate([[0.0], np.cumsum(np.log(up) - np.log(down))])
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    pi /= pi.sum()
    return pi


def stationary_birth_death(chain: MetricChain) -> StationaryResult:
    """`birth_death_law` of a tridiagonal kernel in point order."""
    kernel = chain.kernel
    # MetricChain rejects negative entries, so every nonzero entry is a jump
    off_band = np.count_nonzero(kernel) - sum(
        np.count_nonzero(np.diagonal(kernel, d)) for d in (-1, 0, 1))
    if off_band:
        raise ChainValidationError(
            f"kernel is not tridiagonal: {off_band} nonzero entries off the band")
    pi = birth_death_law(np.diag(kernel, 1), np.diag(kernel, -1))
    return StationaryResult(distribution=pi, method="birth_death_exact",
                            residual=_residual(chain, pi))


def stationary_power(chain: MetricChain) -> StationaryResult:
    """Iterate v <- vP from the uniform vector until TV(v, vP) <= POWER_TOL.

    A periodic chain can oscillate forever; after POWER_MAX_ITERS steps the
    error message reports the last residual.
    """
    v = np.full(chain.n, 1.0 / chain.n)
    kernel = chain.kernel
    residual = np.inf
    for _ in range(POWER_MAX_ITERS):
        nxt = v @ kernel
        residual = tv_distance(v, nxt)
        if residual <= POWER_TOL:
            pi = nxt / nxt.sum()
            return StationaryResult(distribution=pi, method="power_iteration",
                                    residual=_residual(chain, pi))
        v = nxt
    raise PowerIterationError(
        f"power iteration hit max_iters={POWER_MAX_ITERS} with residual "
        f"{residual:.3e} > tol={POWER_TOL:.3e}; a periodic chain never settles")


def stationary_law(chain: MetricChain) -> StationaryResult:
    """The exact birth-death law when the kernel is tridiagonal with positive
    adjacent rates, else power iteration."""
    try:
        return stationary_birth_death(chain)
    except ChainValidationError:
        return stationary_power(chain)


def empirical_tail(pi: np.ndarray, chain: MetricChain, origin: int,
                   levels: Sequence[float]) -> TailCurve:
    """Exact stationary mass at distance >= l from the origin, per level."""
    levels = np.asarray(levels, dtype=float)
    d = chain.dist[origin]
    values = np.array([pi[d >= l - DIST_TOL].sum() for l in levels])
    return TailCurve(levels=levels, values=values, kind="empirical")


def cutoff_mass(pi: np.ndarray) -> float:
    """Stationary mass of the last 10 states: what a truncation may have cut off."""
    return float(pi[-10:].sum())


def truncation_audit(pi: np.ndarray) -> bool:
    """True iff the last 10 states carry < 1e-10 stationary mass: a negligible cut-off tail."""
    return cutoff_mass(pi) < 1e-10
