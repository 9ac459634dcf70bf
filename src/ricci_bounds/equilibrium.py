"""Ground-truth stationary distributions and empirical tail curves.

Three estimators: the detailed-balance product formula (exact on tridiagonal
chains), dense power iteration, and the Cesaro average of kernel pushforwards
of a point mass.  The first two agree to 1e-8 on every birth-death instance;
the Cesaro residual decays like 1/n.
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
    method: str   # birth_death_exact | power_iteration | cesaro
    residual: float  # TV(pi, pi P)


def tv_distance(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _residual(chain: MetricChain, pi: np.ndarray) -> float:
    return tv_distance(pi, pi @ chain.kernel)


def stationary_birth_death(chain: MetricChain) -> StationaryResult:
    """Detailed-balance product formula pi(n+1)/pi(n) = p(n,n+1)/p(n+1,n).

    Requires a tridiagonal kernel in point order with strictly positive
    adjacent rates.  Accumulated in log space, so long chains with large
    mass ratios stay exact.
    """
    kernel = chain.kernel
    n = chain.n
    off = np.abs(kernel.copy())
    for d in (-1, 0, 1):
        idx = np.arange(max(0, -d), min(n, n - d))
        off[idx, idx + d] = 0.0
    if np.any(off > 0):
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        raise ChainValidationError(
            f"kernel is not tridiagonal: kernel[{i}][{j}] = {kernel[i, j]!r}")
    up = np.diag(kernel, 1)
    down = np.diag(kernel, -1)
    if np.any(up <= 0) or np.any(down <= 0):
        raise ChainValidationError(
            "birth-death formula needs strictly positive adjacent rates")
    log_pi = np.concatenate([[0.0], np.cumsum(np.log(up) - np.log(down))])
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    pi /= pi.sum()
    return StationaryResult(distribution=pi, method="birth_death_exact",
                            residual=_residual(chain, pi))


def stationary_power(chain: MetricChain) -> StationaryResult:
    """Iterate v <- vP from the uniform vector until TV(v, vP) <= POWER_TOL.

    A periodic chain can oscillate forever; after POWER_MAX_ITERS steps the
    error reports the last residual (the Cesaro estimator handles that case).
    """
    v = np.full(chain.n, 1.0 / chain.n)
    kernel = chain.kernel
    residual = np.inf
    for _ in range(POWER_MAX_ITERS):
        nxt = v @ kernel
        residual = tv_distance(v, nxt)
        if residual <= POWER_TOL:
            return StationaryResult(distribution=nxt / nxt.sum(),
                                    method="power_iteration",
                                    residual=_residual(chain, nxt / nxt.sum()))
        v = nxt
    raise PowerIterationError(
        f"power iteration hit max_iters={POWER_MAX_ITERS} with residual "
        f"{residual:.3e} > tol={POWER_TOL:.3e} (periodic chain? try cesaro)",
        residual=residual)


def stationary_cesaro(chain: MetricChain, start: int, n: int) -> StationaryResult:
    """Cesaro average (1/(n+1)) sum_{i=0}^{n} P^i applied to delta_start."""
    if n < 0:
        raise ValueError("n must be >= 0")
    v = np.zeros(chain.n)
    v[start] = 1.0
    acc = v.copy()
    for _ in range(n):
        v = v @ chain.kernel
        acc += v
    pi = acc / (n + 1)
    return StationaryResult(distribution=pi, method="cesaro",
                            residual=_residual(chain, pi))


def empirical_tail(result: StationaryResult, chain: MetricChain, origin: int,
                   levels: Sequence[float]) -> TailCurve:
    """Exact stationary mass at distance >= l from the origin, per level."""
    levels = np.asarray(levels, dtype=float)
    d = chain.dist[origin]
    pi = result.distribution
    values = np.array([pi[d >= l - DIST_TOL].sum() for l in levels])
    return TailCurve(levels=levels, values=values, kind="empirical")


def cutoff_mass(result: StationaryResult) -> float:
    """Stationary mass of the last 10 states: what a truncation may have cut off."""
    return float(result.distribution[-10:].sum())


def truncation_audit(result: StationaryResult) -> bool:
    """True iff the last 10 states carry < 1e-10 stationary mass: a negligible cut-off tail."""
    return cutoff_mass(result) < 1e-10
