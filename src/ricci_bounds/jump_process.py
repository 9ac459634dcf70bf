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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import _exp_or_inf

# Paths per chunk.  A chunk draws its Poisson jump counts at once, so the
# chunk fixes how the draws group in the seeded stream.
_CHUNK = 200_000
# Jump terms per row block.  A chunk's jump times are drawn and summed one
# block at a time, so one block's terms and int32 zero column index (about
# 1.5 MB, cache-sized) are all the memory they take.
_BLOCK = 2 ** 17
# The default horizon where it forgets X_0.  A chunk's int32 row pointers
# count about _CHUNK * _HORIZON jump times: past this horizon a chunk
# simulates proportionally fewer paths, so the count stays far below 2**31 - 1.
_HORIZON = 25
# Most paths one run simulates: a cap on the run time, which grows with the
# paths, not on memory, since simulate_paths keeps no per-path array.
MAX_PATHS = 10_000_000
START_TOL = 1e-8        # exp(-alpha T) below this: the start X_0 = 0 is forgotten
SERIES_TOL = 1e-12      # relative tolerance of the I(lambda) series
CP_CONFIDENCE = 0.99    # level of the two-sided Clopper-Pearson interval


@dataclass(frozen=True)
class JumpProcessConfig:
    drift_alpha: float
    horizon_T: Optional[float]   # None: the default, _HORIZON or longer
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.drift_alpha <= 0:
            raise ValueError("drift_alpha must be positive")
        if self.n_paths <= 0:
            raise ValueError("n_paths (--paths) must be positive")
        if self.n_paths > MAX_PATHS:
            raise ValueError(f"{self.n_paths} paths exceed the budget "
                             f"MAX_PATHS = {MAX_PATHS}")
        horizon = self.horizon_T
        if horizon is None:
            # the smallest integer T >= _HORIZON with exp(-alpha T) < START_TOL
            horizon = float(max(_HORIZON, np.ceil(-math.log(START_TOL) / self.drift_alpha)))
            horizon += math.exp(-self.drift_alpha * horizon) >= START_TOL   # alpha T on the edge
            object.__setattr__(self, "horizon_T", horizon)
        if math.exp(-self.drift_alpha * horizon) >= START_TOL:
            raise ValueError(
                f"horizon too short: need exp(-alpha*T) < {START_TOL:g} so the "
                "X_0 = 0 start is indistinguishable from stationarity")
        if horizon > _CHUNK * _HORIZON:
            raise ValueError(
                f"horizon {horizon:g} exceeds the budget {_CHUNK * _HORIZON}: "
                "one path's jump times would pass a chunk's")


@dataclass(frozen=True)
class PathTally:
    """What the drift-jump example reads of its paths, tallied block by block."""

    levels: np.ndarray   # the tail levels, as given
    counts: np.ndarray   # paths with X_T >= level, per level
    size: int            # paths simulated
    total: float         # sum of X_T: each block's sum, added in path order

    @property
    def mean(self) -> float:
        return self.total / self.size


# Most uniforms one piece of the Poisson draws reads: its scratch stays
# under 1.5 MB.
_PIECE = 2 ** 15
# Where the two sides of the PTRS log test, its left side taken with np.log,
# lie within this of each other, the pair is settled again with libm's log
# (math.log), which numpy's C code calls.  The right side has numpy's bits;
# the left one's two log terms are below 2**7 in magnitude, and the margin
# covers 2**10 ulps of error in each, far past the 1 ulp measured.
_LOG_MARGIN = 2.0 ** -30
# numpy's random_loggam: its Stirling series coefficients and ln(2 pi)
_LOGGAM_COEFFS = (8.333333333333333e-02, -2.777777777777778e-03,
                  7.936507936507937e-04, -5.952380952380952e-04,
                  8.417508417508418e-04, -1.917526917526918e-03,
                  6.410256410256410e-03, -2.955065359477124e-02,
                  1.796443723688307e-01, -1.39243221690590e+00)
_LN_2PI = 1.8378770664093453e+00


def _libm_log(x: np.ndarray) -> np.ndarray:
    """ln x through math.log, which is libm's log, as numpy's C code takes it
    (np.log may differ from it by an ulp); ln 0 = -inf."""
    return np.fromiter((math.log(v) if v else -math.inf for v in x.tolist()), float, x.size)


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's random_loggam at integers x >= 1, in its order of operations."""
    n = np.where(x < 7.0, 7.0 - x, 0.0)   # integer x: (int)(7 - x) is 7 - x
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = np.full(x.size, _LOGGAM_COEFFS[9])
    for c in _LOGGAM_COEFFS[8::-1]:
        gl0 = gl0 * x2 + c
    gl = gl0 / x0 + 0.5 * _LN_2PI + (x0 - 0.5) * _libm_log(x0) - x0
    for j in range(1, 7):   # below 7, x0 = 7 steps down: gl -= log(x0 - 1); x0 -= 1
        gl[n >= j] -= math.log(7.0 - j)
    gl[(x == 1.0) | (x == 2.0)] = 0.0
    return gl


class _PoissonPTRS:
    """numpy's Poisson draws for lam >= 10 -- Hörmann's PTRS (transformed
    rejection, Insurance: Math. Econ. 12, 1993) -- one attempt per pair of
    uniforms, every pair of a piece of the stream at once.

    Each attempt reads exactly two doubles, so the j-th count is the k of the
    j-th accepted pair.  A piece of at most twice the missing counts holds at
    most that many attempts, so it never reads past the last count, and the
    stream ends where rng.poisson leaves it, on any bit generator.
    """

    def __init__(self, lam: float):
        self.lam = lam
        self.loglam = math.log(lam)
        self.b = 0.931 + 2.53 * math.sqrt(lam)
        self.a = -0.059 + 0.02483 * self.b
        self.log_invalpha = math.log(1.1239 + 1.1328 / (self.b - 3.4))
        self.vr = 0.9277 - 3.6224 / (self.b - 2)
        # the log test's right side -lam + k ln lam - loggam(k + 1) over the k
        # that a pair with us >= 0.013 (so |U| <= 0.487) can reach; the rare
        # pair past the table (us < 0.013 and V <= us) is settled on its own
        reach = (2 * self.a / 0.013 + self.b) * 0.487
        self.lo = max(0, math.floor(lam + 0.43 - reach) - 1)
        self.rhs = self._rhs(np.arange(self.lo, math.floor(lam + 0.43 + reach) + 2.0))

    def _rhs(self, k: np.ndarray) -> np.ndarray:
        return -self.lam + k * self.loglam - _loggam(k + 1)

    def _lhs(self, v: np.ndarray, us: np.ndarray, log) -> np.ndarray:
        return log(v) + self.log_invalpha - log(self.a / (us * us) + self.b)

    def step(self, u: np.ndarray):
        """(k, accepted): one attempt of numpy's PTRS loop on each pair
        U = u[2i] - 0.5, V = u[2i + 1], in the C code's order of operations."""
        U = u[0::2] - 0.5
        V = u[1::2]
        us = np.abs(U)
        np.subtract(0.5, us, out=us)
        with np.errstate(divide="ignore"):   # u = 0.0: us = 0, k = -inf, rejected
            k = np.divide(2 * self.a, us)
        k += self.b
        k *= U
        k += self.lam
        k += 0.43
        np.floor(k, out=k)
        accepted = us >= 0.07
        accepted &= V <= self.vr
        tested = V <= us
        tested |= us >= 0.013
        tested &= k >= 0
        tested &= ~accepted
        idx = np.flatnonzero(tested)
        at = k[idx].astype(np.intp)
        at -= self.lo
        outside = (at < 0) | (at >= self.rhs.size)
        with np.errstate(divide="ignore"):   # V = 0: log V = -inf, accepted
            gap = self._lhs(V[idx], us[idx], np.log)
        gap -= self.rhs.take(at, mode="clip")   # <= 0 exactly where lhs <= rhs
        accepted[idx] = gap <= 0.0
        # settled again with libm's log: a k past the table, or a gap within the margin
        redo = idx[outside | (np.abs(gap) <= _LOG_MARGIN)]
        if redo.size:
            accepted[redo] = self._lhs(V[redo], us[redo], _libm_log) <= self._rhs(k[redo])
        return k, accepted

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Write the counts of rng.poisson(lam, out.size) into out and leave the
        stream of rng where that call leaves it.

        An attempt reads two doubles and gives at most one count, so a piece of
        at most twice the missing counts cannot read past the last one."""
        got = 0
        while got < out.size:
            k, accepted = self.step(rng.random(min(_PIECE, 2 * (out.size - got))))
            k = k[accepted]
            out[got:got + k.size] = k
            got += k.size


def simulate_paths(config: JumpProcessConfig, levels=(),
                   sink: Optional[Callable[[np.ndarray], object]] = None) -> PathTally:
    """Simulate every path, exact given the jump-count/uniform-times law, and
    tally each row block of X_T as it is summed: no per-path array is kept.

    Deterministic for a fixed seed: each chunk of up to _CHUNK paths (fewer
    past horizon _HORIZON) draws its Poisson jump counts, then its jump times,
    so the chunk fixes how the draws group in the stream.  The jump counts are
    those of rng.poisson(T, size), which leaves the stream where they leave
    it: from T = 10 on, numpy's PTRS loop runs over pieces of up to _PIECE
    uniforms at once (_PoissonPTRS), each at most two uniforms (one attempt)
    per missing count, so no piece reads past the last count; below 10, where
    numpy multiplies uniforms instead, rng.poisson draws them.  The tests
    compare the counts and the stream with rng.poisson's and pin the README
    samples' sha256, so a numpy whose Poisson method changes fails them
    rather than silently changing the output.  The jump times are drawn and
    summed in row blocks cut on row boundaries: a block holds fewer than
    _BLOCK terms plus those of its last path, which may be longer than
    _BLOCK on its own.  Consecutive draws give the same doubles as one draw
    of the chunk's jump count, so the blocks keep the bits.  Each path
    is one row of a one-column CSR matrix times 1.0, which adds its terms left
    to right from 0.0 (the product by 1.0 is exact).  The blocks reuse one
    terms buffer and one zero column index.

    Each block's X_T, a fresh array in path order, goes to `sink` when one is
    given, and into exact `>=` counts at `levels` and the running sum.
    """
    # imported here: the other commands never simulate, so they never load scipy.sparse
    from scipy.sparse import csr_array
    levels = np.asarray(levels, dtype=float)
    counts = np.zeros(levels.size, dtype=np.int64)
    total = 0.0
    rng = np.random.default_rng(config.seed)
    alpha, horizon = config.drift_alpha, config.horizon_T
    chunk = min(_CHUNK, int(_CHUNK * _HORIZON // horizon))
    ptrs = _PoissonPTRS(horizon) if horizon >= 10.0 else None
    ones = np.ones(1)
    terms, cols = np.empty(0), np.empty(0, dtype=np.int32)
    done = 0
    while done < config.n_paths:
        size = min(chunk, config.n_paths - done)
        # int32 row pointers and column indices, so scipy copies neither: the
        # horizon budget keeps chunk * horizon <= _CHUNK * _HORIZON = 5e6, so
        # a chunk's Poisson jump count stays far below 2**31 - 1.  The counts
        # are drawn into the pointers and summed in place.
        indptr = np.zeros(size + 1, dtype=np.int32)
        if ptrs is None:
            indptr[1:] = rng.poisson(horizon, size=size)
        else:
            ptrs.fill(rng, indptr[1:])
        np.cumsum(indptr, out=indptr)
        # the first row starting at or past each multiple of _BLOCK terms
        cuts = np.searchsorted(indptr, np.arange(_BLOCK, int(indptr[-1]), _BLOCK))
        for a, b in itertools.pairwise(np.unique([0, *cuts, size]).tolist()):
            m = int(indptr[b] - indptr[a])
            if m > terms.size:
                terms = cols = t = None   # release the old buffers before the larger ones
                terms, cols = np.empty(m), np.zeros(m, dtype=np.int32)
            # the jump times, the draws and bits of rng.uniform(0.0, T, m), turned
            # into their terms exp(-alpha (T - t)) in place
            t = terms[:m]
            rng.random(out=t)
            t *= horizon
            np.subtract(horizon, t, out=t)
            t *= -alpha
            np.exp(t, out=t)
            x = csr_array((t, cols[:m], indptr[a:b + 1] - indptr[a]), shape=(b - a, 1)) @ ones
            counts += np.fromiter((np.count_nonzero(x >= l) for l in levels.tolist()),
                                  np.int64, levels.size)
            total += float(x.sum())
            if sink is not None:
                sink(x)
        done += size
    return PathTally(levels=levels, counts=counts, size=config.n_paths, total=total)


def transform_I(lam: float) -> float:
    """I(lambda) = sum_{n>=1} lambda^n / (n n!), summed to relative SERIES_TOL."""
    total = 0.0
    term = lam  # lambda^n / n!
    n = 1
    while abs(term) > SERIES_TOL * (1.0 + abs(total)):
        total += term / n
        n += 1
        term *= lam / n
        if n > 10_000:
            raise RuntimeError("series did not converge (|lambda| too large?)")
    return total


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


def clopper_pearson_upper(successes: int, trials: int) -> float:
    """Upper end of the two-sided Clopper-Pearson interval at CP_CONFIDENCE."""
    if successes >= trials:
        return 1.0
    tail = (1.0 - CP_CONFIDENCE) / 2.0
    # imported here: only the drift-jump example draws Clopper-Pearson ends
    from scipy.special import betaincinv
    return float(betaincinv(successes + 1, trials - successes, 1.0 - tail))


def tail_comparison(tally: PathTally, alpha: float) -> list:
    """One row [level, empirical, CP-upper, bound] per tallied level.

    The CP upper end can sit below the bound only where the Monte Carlo
    resolution ~ 1/n_paths is finer than the bound itself.
    """
    return [[float(l), int(c) / tally.size, clopper_pearson_upper(int(c), tally.size),
             poissonian_tail_bound(float(l), alpha)]
            for l, c in zip(tally.levels, tally.counts)]
