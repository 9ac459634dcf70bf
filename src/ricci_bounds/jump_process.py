"""Continuous-time drift-jump process: exact simulation and Poissonian tail bound.

The process drifts toward 0 at rate alpha and jumps by +1 at unit rate.  At
time T it equals exp(-alpha T) X_0 plus a sum of exp(-alpha (T - T_i)) over
the jump times, with the jump times uniform on [0, T] given their count --
an exact representation, so the simulation involves no time discretization.
The stationary Laplace transform is G(lambda) = exp(I(lambda)/alpha) with
I(lambda) = sum lambda^n/(n n!), giving the Markov-inequality tail bound
exp(I(ln l)/alpha - l ln l): Poissonian decay, demonstrably not Gaussian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .bounds import _exp_or_inf

_CHUNK = 200_000
_EXP_OVERFLOW = 700.0


@dataclass(frozen=True)
class JumpProcessConfig:
    drift_alpha: float
    horizon_T: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.drift_alpha <= 0:
            raise ValueError("drift_alpha must be positive")
        if self.n_paths <= 0:
            raise ValueError("n_paths must be positive")
        if math.exp(-self.drift_alpha * self.horizon_T) >= 1e-8:
            raise ValueError(
                "horizon too short: need exp(-alpha*T) < 1e-8 so the "
                "X_0 = 0 start is indistinguishable from stationarity")


def simulate_paths(config: JumpProcessConfig) -> np.ndarray:
    """One X_T sample per path, exact given the jump-count/uniform-times law.

    Deterministic for a fixed seed (fixed chunking keeps the stream stable).
    """
    rng = np.random.default_rng(config.seed)
    alpha, horizon = config.drift_alpha, config.horizon_T
    out = np.empty(config.n_paths)
    done = 0
    while done < config.n_paths:
        size = min(_CHUNK, config.n_paths - done)
        counts = rng.poisson(horizon, size=size)
        times = rng.uniform(0.0, horizon, size=int(counts.sum()))
        terms = np.exp(-alpha * (horizon - times))
        sums = np.zeros(size)
        np.add.at(sums, np.repeat(np.arange(size), counts), terms)
        out[done:done + size] = sums
        done += size
    return out


def transform_I(lam: float, tol: float = 1e-12) -> float:
    """I(lambda) = sum_{n>=1} lambda^n / (n n!), summed to relative tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    total = 0.0
    term = lam  # lambda^n / n!
    n = 1
    while abs(term) > tol * (1.0 + abs(total)):
        total += term / n
        n += 1
        term *= lam / n
        if n > 10_000:
            raise RuntimeError("series did not converge (|lambda| too large?)")
    return total


def stationary_log_G(lam: float, alpha: float) -> float:
    """log of the stationary Laplace transform: I(lambda)/alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return transform_I(lam) / alpha


def stationary_laplace_G(lam: float, alpha: float) -> float:
    """G(lambda) = exp(I(lambda)/alpha); overflow-guarded (use the log form then)."""
    log_g = stationary_log_G(lam, alpha)
    if log_g > _EXP_OVERFLOW:
        raise OverflowError(
            f"G(lambda) overflows float64 (log G = {log_g:.6g}); "
            "use stationary_log_G instead")
    return math.exp(log_g)


def stationary_log_G_T(lam: float, alpha: float, horizon: float) -> float:
    """Finite-horizon version: (I(lambda) - I(lambda e^{-alpha T}))/alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (transform_I(lam) - transform_I(lam * math.exp(-alpha * horizon))) / alpha


def stationary_laplace_G_T(lam: float, alpha: float, horizon: float) -> float:
    log_g = stationary_log_G_T(lam, alpha, horizon)
    if log_g > _EXP_OVERFLOW:
        raise OverflowError(
            f"G_T(lambda) overflows float64 (log G_T = {log_g:.6g}); "
            "use stationary_log_G_T instead")
    return math.exp(log_g)


def poissonian_tail_bound(l: float, alpha: float) -> float:
    """Markov bound P(X >= l) <= exp(I(ln l)/alpha - l ln l), for l > 1.

    +inf where the exponent is past the float range.
    """
    if l <= 1:
        raise ValueError("the bound needs l > 1 (ln l must be positive)")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    ln_l = math.log(l)
    return _exp_or_inf(transform_I(ln_l) / alpha - l * ln_l)


def clopper_pearson_upper(successes: int, trials: int,
                          confidence: float = 0.99) -> float:
    """Upper end of the two-sided Clopper-Pearson interval."""
    if successes >= trials:
        return 1.0
    tail = (1.0 - confidence) / 2.0
    return float(betaincinv(successes + 1, trials - successes, 1.0 - tail))


def empirical_tail_probs(samples: np.ndarray, levels) -> tuple:
    """(probabilities, counts) of samples >= l per level."""
    samples = np.asarray(samples)
    levels = np.asarray(levels, dtype=float)
    counts = np.array([(samples >= l).sum() for l in levels], dtype=int)
    return counts / samples.size, counts


def tail_comparison(samples: np.ndarray, levels, alpha: float,
                    confidence: float = 0.99):
    """Rows of (level, empirical, CP-upper, bound) plus a dominance verdict.

    Dominance holds when no empirical point estimate exceeds the bound;
    `confirmed` additionally records the levels where even the CP upper end
    sits below the bound (possible only where the Monte Carlo resolution
    ~ 1/n_paths is finer than the bound itself).
    """
    probs, counts = empirical_tail_probs(samples, levels)
    rows = []
    dominated = True
    for l, p, c in zip(np.asarray(levels, dtype=float), probs, counts):
        upper = clopper_pearson_upper(int(c), samples.size, confidence)
        bound = poissonian_tail_bound(float(l), alpha)
        rows.append({"level": float(l), "empirical": float(p),
                     "empirical_ci_high": upper, "bound": bound,
                     "confirmed": upper <= bound})
        if p > bound:
            dominated = False
    return rows, dominated


def tail_shape_witness(samples: np.ndarray, levels) -> dict:
    """Growth diagnostics of -ln of the empirical tail against l^2 and l*ln(l).

    Levels with zero observed mass are dropped (their -ln is undefined);
    the returned dict reports both normalized series, the signed relative
    drift of each across the usable range, and the max/min variation.
    Levels must exceed 1 (l ln l must be positive), and at least one level
    must carry observed mass; otherwise ValueError.
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 1):
        raise ValueError("the witness needs levels l > 1 (l ln l must be positive)")
    probs, counts = empirical_tail_probs(samples, levels)
    if not np.any(counts):
        raise ValueError("no sample reaches any level; every level would be dropped")
    usable = [(float(l), p) for l, p, c in zip(levels, probs, counts) if c > 0]
    dropped = [float(l) for l, c in zip(levels, counts) if c == 0]
    ls = np.array([l for l, _ in usable])
    neg_log = -np.log(np.array([p for _, p in usable]))
    quad_ratio = neg_log / ls**2
    pois_ratio = neg_log / (ls * np.log(ls))

    def stats(series):
        return {"first": float(series[0]), "last": float(series[-1]),
                "signed_drift": float(series[-1] / series[0] - 1.0),
                "variation": float(series.max() / series.min() - 1.0)}

    return {"levels": ls.tolist(), "dropped_levels": dropped,
            "neg_log_tail": neg_log.tolist(),
            "quadratic_normalized": stats(quad_ratio),
            "poissonian_normalized": stats(pois_ratio),
            "quad_series": quad_ratio.tolist(),
            "pois_series": pois_ratio.tolist()}
