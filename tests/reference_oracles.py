"""Reference implementations that only the tests compare the package against.

- `w1_pair`: the certified W1 of one pair of kernel rows, a batch of one
  through `w1_flow`.
- `kappa_pair`: the curvature of one pair through the certified flow solver,
  the per-pair reference for both `local_curvature` routes.
- `pair_curvature_line_dense`: every in-ball pair's curvature on a line
  chain by the CDF identity over two n x n copies, cumulated kernel rows
  and one scratch buffer: the bit-for-bit oracle for the windows of
  `curvature._pair_curvature_line`.
- `w1_rows_lp`: W1 between two kernel rows by the bipartite LP between the
  whole rows, the oracle for the signed-difference LP of `w1_flow`.
- `stochastic_dominance_check`: a CDF comparison on the line; where it
  holds, W1 equals the difference of the means, a third cross-check on the
  transport routes.
- `mmk_kernel_loop`: the M/M/k kernel filled one state at a time, the
  oracle for `build_mmk_chain`'s diagonal assembly.
- `support_s2_loop`: the Hoeffding support bound one kernel row at a time,
  an oracle for `subgaussian_s2`'s blocks of rows.
- `support_s2_product`: the same bound from the nonzeros of S^T S, with S
  the kernel's support pattern as a sparse array: the formula
  `subgaussian_s2` used before it gathered the pairs itself, its bit-for-bit
  oracle.
- `simulate_paths_terms_copied`: the drift-jump simulation with each
  chunk's terms computed as a new array from the jump times and its jump
  counts from `rng.poisson`, the oracle for `simulate_paths`' in-place terms
  and bulk Poisson draws.
- `ptrs_attempt`: one pass of numpy's C Poisson loop for lam >= 10 (PTRS) on
  one pair of uniforms, in scalar Python, the oracle for
  `jump_process._PoissonPTRS.step`; `generator_reading` makes a Generator
  whose next doubles are chosen ones, so numpy's own C code can be fed the
  same pairs.
- `empirical_tail_probs`: tail probabilities counted over a whole sample,
  the oracle for the counts `simulate_paths` tallies block by block.
- `stationary_cesaro`: Cesaro averages of kernel pushforwards of a point
  mass, a third stationary estimator whose residual decays like 1/n.
- `tail_shape_witness`: the growth of -ln of an empirical tail against l^2
  and l ln l, the non-Gaussianity witness of the drift-jump process.

The package's CLI reaches none of them, so they live here, beside
`dickman.py` and `search_oracle.py`.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from ricci_bounds.chain_model import DIST_TOL, ROW_SUM_TOL, MetricChain
from ricci_bounds.equilibrium import StationaryResult, _residual
from ricci_bounds.jump_process import JumpProcessConfig
from ricci_bounds.transport import w1_flow


def w1_pair(chain: MetricChain, x: int, y: int) -> float:
    """Certified exact W1(P_x, P_y) of the one pair (x, y)."""
    return float(w1_flow(chain, [x], [y])[0][0])


def kappa_pair(chain: MetricChain, x: int, y: int) -> float:
    """1 - W1(P_x, P_y)/d(x, y), with W1 from the certified flow solver."""
    if x == y:
        raise ValueError("kappa is undefined on the diagonal (d(x,y) = 0)")
    return 1.0 - w1_pair(chain, x, y) / chain.dist[x, y]


def pair_curvature_line_dense(chain: MetricChain, epsilon: float):
    """(xs, ys, kappa) of every pair at 0 < d <= eps, by the CDF identity.

    One offset at a time in coordinate order, where d grows with the offset,
    so the scan stops at the first offset whose pairs all lie outside the ball.
    """
    order = np.argsort(chain.coords, kind="stable")
    gaps = np.diff(chain.coords[order])
    cdf = chain.kernel[np.ix_(order, order)]
    np.cumsum(cdf, axis=1, out=cdf)
    pairs = [(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))]
    # |F_x - F_y| of every pair at one offset, in rows of n as a fresh array
    # would be, so that the product below makes the same BLAS call
    buf = np.empty_like(cdf)
    for off in range(1, chain.n):
        d = chain.dist[order[:-off], order[off:]]
        near = d <= epsilon + DIST_TOL
        if not near.any():
            break
        gap_cdf = np.subtract(cdf[:-off], cdf[off:], out=buf[:-off])
        w1 = np.abs(gap_cdf, out=gap_cdf)[:, :-1] @ gaps
        pairs.append((order[:-off][near], order[off:][near], 1.0 - w1[near] / d[near]))
    return tuple(map(np.concatenate, zip(*pairs)))


def w1_rows_lp(chain: MetricChain, x: int, y: int) -> float:
    """W1(P_x, P_y) by one uncertified LP that moves all of row x onto all of row y."""
    src, snk = np.flatnonzero(chain.kernel[x]), np.flatnonzero(chain.kernel[y])
    a_eq = np.vstack([np.kron(np.eye(src.size), np.ones(snk.size)),
                      np.kron(np.ones(src.size), np.eye(snk.size))])
    b_eq = np.concatenate([chain.kernel[x, src], chain.kernel[y, snk]])
    res = linprog(chain.dist[np.ix_(src, snk)].ravel(), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def stochastic_dominance_check(mu, nu, coords) -> bool:
    """True iff nu stochastically dominates mu: F_nu(t) <= F_mu(t) + ROW_SUM_TOL everywhere.

    `mu` and `nu` are weight vectors over the points `coords`.  When true, W1
    equals the difference of the means (used as a third cross-check on the
    transport routes).
    """
    coords = np.asarray(coords, dtype=float)
    order = np.argsort(coords, kind="stable")
    cdf_gap = np.cumsum((np.asarray(mu, dtype=float) - np.asarray(nu, dtype=float))[order])
    return bool(np.all(cdf_gap >= -ROW_SUM_TOL))


def mmk_kernel_loop(n0: int, k: int, truncation: int) -> np.ndarray:
    """The M/M/k kernel on {0..truncation}, row by row from its rates."""
    size = truncation + 1
    denom = n0 + k
    kernel = np.zeros((size, size))
    for n in range(size):
        up = n0 / denom
        stay = max(k - n, 0) / denom
        down = min(n, k) / denom
        if n > 0:
            kernel[n, n - 1] = down
        else:
            stay += down  # down mass is 0 at n=0 anyway
        if n < truncation:
            kernel[n, n + 1] = up
            kernel[n, n] = stay
        else:
            kernel[n, n] = stay + up  # boundary: right-jump mass self-loops
    return kernel


def support_s2_loop(chain: MetricChain) -> float:
    """max over kernel rows of (support diameter)^2 / 4, row by row."""
    s2 = 0.0
    for i in range(chain.n):
        supp = np.nonzero(chain.kernel[i])[0]
        diam = float(chain.dist[np.ix_(supp, supp)].max())
        s2 = max(s2, diam * diam / 4.0)
    return s2


def support_s2_product(chain: MetricChain) -> float:
    """(largest distance over the pairs that share a kernel row's support)^2 / 4,
    the pairs read off the nonzeros of S^T S."""
    supp = csr_array(chain.kernel > 0)
    diam = float(chain.dist[(supp.T @ supp).nonzero()].max())
    return diam * diam / 4.0


def simulate_paths_terms_copied(config: JumpProcessConfig, chunk: int) -> np.ndarray:
    """X_T per path from the same random stream as `simulate_paths` with chunks
    of `chunk` paths, each term exp(-alpha (T - t)) built as a new array."""
    rng = np.random.default_rng(config.seed)
    alpha, horizon = config.drift_alpha, config.horizon_T
    out = np.empty(config.n_paths)
    for done in range(0, config.n_paths, chunk):
        size = min(chunk, config.n_paths - done)
        counts = rng.poisson(horizon, size=size)
        times = rng.uniform(0.0, horizon, size=int(counts.sum()))
        terms = np.exp(-alpha * (horizon - times))
        out[done:done + size] = np.bincount(np.repeat(np.arange(size), counts),
                                            weights=terms, minlength=size)
    return out


_LOGGAM_COEFFS = (8.333333333333333e-02, -2.777777777777778e-03,
                  7.936507936507937e-04, -5.952380952380952e-04,
                  8.417508417508418e-04, -1.917526917526918e-03,
                  6.410256410256410e-03, -2.955065359477124e-02,
                  1.796443723688307e-01, -1.39243221690590e+00)


def random_loggam(x: float) -> float:
    """numpy's C random_loggam, statement by statement."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    lg2pi = 1.8378770664093453e+00
    gl0 = _LOGGAM_COEFFS[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM_COEFFS[k]
    gl = gl0 / x0 + 0.5 * lg2pi + (x0 - 0.5) * math.log(x0) - x0
    if x < 7.0:
        for _ in range(n):
            gl -= math.log(x0 - 1.0)
            x0 -= 1.0
    return gl


def ptrs_attempt(lam: float, u: float, v: float):
    """One pass of the loop of numpy's C random_poisson_ptrs (lam >= 10) on
    the uniforms u, v: the k it returns, or None where it draws again."""
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    U = u - 0.5
    V = v
    us = 0.5 - abs(U)
    if us == 0.0:   # 2a/us = inf, so k = floor(-inf) < 0
        return None
    k = math.floor((2 * a / us + b) * U + lam + 0.43)
    if us >= 0.07 and V <= vr:
        return k
    if k < 0 or (us < 0.013 and V > us):
        return None
    log_v = math.log(V) if V > 0.0 else -math.inf
    if (log_v + math.log(invalpha) - math.log(a / (us * us) + b)
            <= -lam + k * loglam - random_loggam(k + 1)):
        return k
    return None


def _untemper(y: int) -> int:
    """The MT19937 key word whose tempered output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


def generator_reading(uniforms) -> np.random.Generator:
    """A Generator whose next doubles are `uniforms` (multiples of 2**-53 in
    [0, 1), at most 312): MT19937 makes a double of the top 27 bits of one
    output and the top 26 of the next, and the key holds outputs untempered."""
    words = []
    for u in uniforms:
        m = int(u * 2.0 ** 53)
        if not (0 <= m < 2 ** 53 and m == u * 2.0 ** 53):
            raise ValueError(f"{u!r} is no double the generator draws")
        words += [(m >> 26) << 5, (m & (2 ** 26 - 1)) << 6]
    key = np.zeros(624, dtype=np.uint32)
    key[:len(words)] = [_untemper(w) for w in words]
    bit_generator = np.random.MT19937(0)
    bit_generator.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bit_generator)


def numpy_ptrs_attempt(lam: float, u: float, v: float):
    """numpy's own answer to ptrs_attempt: rng.poisson fed the pair, then a
    pair that its fast test accepts; the doubles it read tell which pair won."""
    rng = generator_reading([u, v, 0.5, 0.0])
    k = int(rng.poisson(lam))
    words = rng.bit_generator.state["state"]["pos"]
    if words not in (4, 8):
        raise AssertionError(f"rng.poisson read {words} words, not 4 or 8")
    return k if words == 4 else None


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


def empirical_tail_probs(samples: np.ndarray, levels) -> tuple:
    """(probabilities, counts) of samples >= l per level, from the whole sample."""
    samples = np.asarray(samples)
    levels = np.asarray(levels, dtype=float)
    counts = np.array([(samples >= l).sum() for l in levels], dtype=int)
    return counts / samples.size, counts


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
