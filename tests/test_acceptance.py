"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is pinned; nothing is deferred to calibration.  The
Monte Carlo criteria fix seeds and compare distributions, not raw streams.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from ricci_bounds import (JumpProcessConfig, attraction_rho,
                          bound_princ, bound_theorem1, build_discrete_ou_chain,
                          build_mmk_chain, check_epsilon_geodesic,
                          curvature_profile, empirical_tail, search_params,
                          stationary_birth_death,
                          stationary_power, subgaussian_s2, tail_comparison,
                          theorem1_params, transform_I, truncation_audit,
                          tv_distance, w1_flow, w1_line, local_curvature)
from ricci_bounds.bounds import _at_d0, _exp_or_inf, _ln_C

from conftest import line_chain, rows_chain, sampled_paths
from dickman import dickman_tail, transform_I_quadrature
from reference_oracles import (empirical_tail_probs, kappa_pair, stationary_cesaro,
                               stochastic_dominance_check, tail_shape_witness)


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def mmk_kappa_closed_form(n0, k, x, y):
    x, y = min(x, y), max(x, y)
    if y <= k:
        return 1.0 / (n0 + k)
    if x < k < y:
        return (k - x) / (y - x) / (n0 + k)
    return 0.0


def dominance_levels(d0, lmax, count=150):
    levels = np.linspace(d0 + 1e-6, lmax, count)
    ints = np.arange(math.ceil(d0 + 1e-9), math.floor(lmax) + 1, dtype=float)
    return np.unique(np.concatenate([levels, ints]))


# ---------------------------------------------------------------------------
# criterion 1: queueing-chain curvature exactness
# ---------------------------------------------------------------------------

def test_criterion_1_mmk_curvature_exactness():
    start = time.perf_counter()
    worst_kappa = 0.0
    for n0, k, trunc in ((2, 4, 40), (5, 10, 60), (10, 50, 120)):
        chain = build_mmk_chain(n0, k, trunc)
        # all pairs away from the modified boundary row
        for x in range(trunc - 1):
            for y in range(x + 1, trunc):
                kappa = 1.0 - w1_line(chain.kernel[x], chain.kernel[y], chain.coords) / (y - x)
                ref = mmk_kappa_closed_form(n0, k, x, y)
                worst_kappa = max(worst_kappa, abs(kappa - ref))
        # certified-flow route spot checks across the three formula branches
        rng = np.random.default_rng(n0)
        for x, y in [(n0, n0 + 1), (max(0, k - 2), k + 2), (k + 1, k + 3)] + [
                tuple(sorted(rng.choice(trunc - 1, size=2, replace=False)))
                for _ in range(10)]:
            if x == y:
                continue
            ref = mmk_kappa_closed_form(n0, k, x, y)
            worst_kappa = max(worst_kappa, abs(kappa_pair(chain, int(x), int(y)) - ref))
        rho = attraction_rho(chain, 1.0, n0)
        assert abs(rho - 1.0 / (n0 + k)) <= 1e-9, (n0, k, rho)
        assert subgaussian_s2(chain) == 1.0
    elapsed = time.perf_counter() - start
    report(1, worst_kappa <= 1e-9 and elapsed < 10.0,
           f"max |kappa - closed form| = {worst_kappa:.2e}, "
           f"rho = 1/(n0+k) and s^2 = 1 on all instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: transport cross-validation
# ---------------------------------------------------------------------------

def test_criterion_2_transport_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    n_points = 120
    coords = np.sort(rng.uniform(-30.0, 30.0, size=n_points))
    chain = line_chain(coords, np.eye(n_points))

    def rand_measure(max_support=50):
        size = int(rng.integers(1, max_support + 1))
        support = rng.choice(n_points, size=size, replace=False)
        w = rng.random(size)
        vec = np.zeros(n_points)
        vec[np.sort(support)] = w / w.sum()
        return vec

    worst_agree, worst_gap = 0.0, 0.0
    for _ in range(500):
        mu, nu = rand_measure(), rand_measure()
        (value,), (gap,), _ = w1_flow(rows_chain(chain, [mu, nu]), [0], [1])
        line = w1_line(mu, nu, coords)
        worst_agree = max(worst_agree, abs(line - value))
        worst_gap = max(worst_gap, gap)

    worst_mean_gap = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 41))
        shift = int(rng.integers(1, n_points - 60))
        support = np.sort(rng.choice(n_points - shift, size=size, replace=False))
        w = rng.random(size)
        w /= w.sum()
        mu, nu = np.zeros(n_points), np.zeros(n_points)
        mu[support], nu[support + shift] = w, w
        assert stochastic_dominance_check(mu, nu, coords)
        gap = abs(w1_line(mu, nu, coords) - abs(mu @ coords - nu @ coords))
        worst_mean_gap = max(worst_mean_gap, gap)
    elapsed = time.perf_counter() - start
    report(2, worst_agree <= 1e-9 and worst_gap <= 1e-9
           and worst_mean_gap <= 1e-9 and elapsed < 30.0,
           f"|line - flow| <= {worst_agree:.2e}, duality gap <= {worst_gap:.2e}, "
           f"dominated-pair mean check <= {worst_mean_gap:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: bound dominance on the three regimes
# ---------------------------------------------------------------------------

def test_criterion_3_bound_dominance():
    start = time.perf_counter()
    instances = ((25, 30, 260, 5.0),   # gap at the sqrt(n0) scale
                 (25, 27, 460, 2.0),   # narrow gap
                 (5, 15, 110, 4.0))    # gap >= n0
    worst_violation = -np.inf
    for n0, k, trunc, eps in instances:
        chain = build_mmk_chain(n0, k, trunc)
        exact = stationary_birth_death(chain)
        assert truncation_audit(exact.distribution), (n0, k, trunc)
        profile = curvature_profile(chain, eps, chain.origin_hint)
        lmax = float(chain.dist[n0].max()) - 1.0

        default = search_params(profile, "paper_default")
        grid = search_params(profile, "grid", reference_level=2 * default.d0)
        curves = []
        lv1 = dominance_levels(default.d0, lmax)
        curves.append((bound_theorem1(profile, lv1), lv1))
        curves.append((bound_princ(profile, default, lv1), lv1))
        lv2 = dominance_levels(grid.d0, lmax)
        curves.append((bound_princ(profile, grid, lv2), lv2))
        for curve, levels in curves:
            tail = empirical_tail(exact.distribution, chain, n0, levels)
            violation = float(np.max(tail.values - curve.values))
            worst_violation = max(worst_violation, violation)
    elapsed = time.perf_counter() - start
    report(3, worst_violation <= 1e-12 and elapsed < 120.0,
           f"worst tail-over-bound excess = {worst_violation:.2e} "
           f"(theorem1 + default/grid princ, 3 regimes), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: regime shape reproduction
# ---------------------------------------------------------------------------

def test_criterion_4_regime_shapes():
    # middle regime sqrt(n0) <= k - n0 <= n0: the log-bound carries a
    # Gaussian segment at the right scale and an exponential rate near truth
    n0, k, trunc, eps = 100, 200, 320, 8.0
    chain = build_mmk_chain(n0, k, trunc)
    profile = curvature_profile(chain, eps, chain.origin_hint)
    env = profile.envelope
    plateau = float(env(0.0))
    plateau_end = float(env.breakpoints[np.nonzero(env.values
                                                   >= plateau - 1e-15)[0][-1]])
    params = search_params(profile, "grid", reference_level=plateau_end)
    assert params.d0 < plateau_end - 2.0

    window = np.linspace(params.d0, plateau_end, 15)
    curve = bound_princ(profile, params, window)
    quad_coeff = np.polyfit(window, -np.log(curve.values), 2)[0]
    gauss_ok = 1.0 / (4 * n0) <= quad_coeff <= 4.0 / n0

    far = np.linspace(110.0, 160.0, 11)
    far_curve = bound_princ(profile, params, far)
    slope = np.polyfit(far, -np.log(far_curve.values), 1)[0]
    target = (k - n0) / n0
    exp_ok = target / 4.0 <= slope <= 4.0 * target

    # narrow regime k - n0 = o(sqrt(n0)): no Gaussian segment beyond d0
    chain2 = build_mmk_chain(25, 27, 260)
    profile2 = curvature_profile(chain2, 2.0, chain2.origin_hint)
    flat_ok = True
    for p in (search_params(profile2, "paper_default"),
              search_params(profile2, "grid", reference_level=60.0)):
        flat_ok &= profile2.envelope.support_end() <= p.d0
        flat_ok &= float(profile2.envelope(p.d0)) == 0.0
        lv = np.linspace(p.d0, p.d0 + 30.0, 31)
        c = bound_princ(profile2, p, lv)
        flat_ok &= bool(np.max(np.abs(np.diff(-np.log(c.values), 2))) <= 1e-9)

    report(4, gauss_ok and exp_ok and flat_ok,
           f"gaussian coeff {quad_coeff:.4g} vs 1/n0 = {1 / n0:.4g} (x4 window), "
           f"exp rate {slope:.4g} vs {target:.4g} (x4 window), "
           f"narrow regime purely exponential beyond d0: {flat_ok}")


# ---------------------------------------------------------------------------
# criterion 5: Gaussian-kernel chain coefficient
# ---------------------------------------------------------------------------

def test_criterion_5_ou_gaussian_coefficient():
    start = time.perf_counter()
    alpha, width, step, eps = 0.5, 10.0, 0.05, 3.0
    chain = build_discrete_ou_chain(alpha, width, step)
    profile = curvature_profile(chain, eps, chain.origin_hint)
    env_dev = float(np.max(np.abs(profile.envelope.values - alpha)))

    params = theorem1_params(profile)
    levels = np.linspace(params.d0 + 1e-6, width, 25)
    curve = bound_theorem1(profile, levels)
    quad_coeff = np.polyfit(levels, -np.log(curve.values), 2)[0]
    coeff_ok = abs(quad_coeff - alpha / 4.0) <= 0.1 * (alpha / 4.0)

    stationary = stationary_power(chain)
    tail = empirical_tail(stationary.distribution, chain, profile.origin, levels)
    dominated = bool(np.all(curve.values + 1e-12 >= tail.values))
    elapsed = time.perf_counter() - start
    report(5, env_dev <= 0.05 and coeff_ok and dominated and elapsed < 60.0,
           f"envelope within {env_dev:.2e} of alpha, log-bound quadratic "
           f"coefficient {quad_coeff:.6f} vs alpha/4 = {alpha / 4}, "
           f"dominated = {dominated}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: jump process
# ---------------------------------------------------------------------------

JUMP_SEED = 20240817
# Levels that 10^6 paths resolve: P(X >= 5) = 7.0e-5 leaves ~70 paths at the
# last one, while P(X >= 7) = 1.5e-7 leaves 0 or 1 and makes any statistic
# over [3, 8] depend on the seed.
RESOLVED_LEVELS = [3.0, 4.0, 5.0]


@pytest.fixture(scope="module")
def jump_samples():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=25.0,
                            n_paths=1_000_000, seed=JUMP_SEED)
    start = time.perf_counter()
    samples, tally = sampled_paths(cfg, [2.0, 3.0, 5.0, 8.0, 12.0])
    return samples, tally, time.perf_counter() - start


def test_criterion_6_jump_process(jump_samples):
    samples, tally, sim_time = jump_samples
    start = time.perf_counter()
    se = samples.std() / math.sqrt(samples.size)
    mean_ok = abs(samples.mean() - 1.0) <= 3 * se

    rows = tail_comparison(tally, alpha=1.0)
    dominated = all(p <= bound for _, p, _, bound in rows)
    # Monte Carlo resolution (~5e-6 at 99%) certifies the CI-upper comparison
    # only where the bound is larger than that floor: levels 2, 3, 5
    confirmed_ok = all(upper <= bound for l, _, upper, bound in rows if l in (2.0, 3.0, 5.0))

    i_gap = abs(transform_I(1.0) - transform_I_quadrature(1.0))

    # exact variation on these levels (Dickman law): 12.6%
    witness = tail_shape_witness(samples, RESOLVED_LEVELS)
    pois_variation = witness["poissonian_normalized"]["variation"]
    elapsed = sim_time + time.perf_counter() - start
    report(6, mean_ok and dominated and confirmed_ok and i_gap <= 1e-9
           and not witness["dropped_levels"] and pois_variation < 0.25
           and elapsed < 120.0,
           f"mean within {abs(samples.mean() - 1.0) / se:.2f} se of 1/alpha, "
           f"tail dominated at all levels (CI-confirmed at 2/3/5), "
           f"I(1) routes agree to {i_gap:.1e}, "
           f"(-ln tail)/(l ln l) varies {pois_variation:.1%} < 25% on "
           f"{witness['levels']} (dropped {witness['dropped_levels']}), "
           f"{elapsed:.1f}s")


def quadratic_drift(levels, log_tails):
    """Signed drift of (-ln tail)/l^2 from the first level to the last."""
    first = -log_tails[0] / levels[0] ** 2
    last = -log_tails[-1] / levels[-1] ** 2
    return last / first - 1.0


def test_criterion_6_witness_quadratic_drift_as_stated(jump_samples):
    """Non-Gaussianity witness: (-ln tail)/l^2 falls on [3, 5], as the exact law does.

    At alpha = 1 the stationary law is the Dickman law (tests/dickman.py).
    Its tail decays like exp(-l ln l), slower than any Gaussian, so
    (-ln tail)/l^2 falls: its exact drift over [3, 5] is -22.0%.  A Gaussian
    with the same mean 1/alpha and variance 1/(2 alpha) makes the statistic
    rise, by +11.0% on the same levels, so the sign of the drift tells the
    two laws apart.  The clause asserts that every level carries at least 50
    paths, that the measured drift is negative and within 0.03 (about three
    standard errors) of the exact value, and that the matched Gaussian's
    exact drift is positive.
    """
    samples, _, _ = jump_samples
    witness = tail_shape_witness(samples, RESOLVED_LEVELS)
    _, counts = empirical_tail_probs(samples, RESOLVED_LEVELS)
    drift = witness["quadratic_normalized"]["signed_drift"]
    exact = quadratic_drift(RESOLVED_LEVELS,
                            [math.log(dickman_tail(l)) for l in RESOLVED_LEVELS])
    gaussian = quadratic_drift(RESOLVED_LEVELS,
                               norm.logsf(RESOLVED_LEVELS, loc=1.0,
                                          scale=math.sqrt(0.5)))
    report("6 (witness drift clause)",
           not witness["dropped_levels"] and counts.min() >= 50
           and drift < 0.0 and abs(drift - exact) <= 0.03 and gaussian > 0.0,
           f"(-ln tail)/l^2 signed drift across levels {witness['levels']} "
           f"(paths {counts.tolist()}, at least 50 each) is {drift:+.1%}, "
           f"exact Dickman drift {exact:+.1%} (within 3.0%), matched "
           f"Gaussian {gaussian:+.1%} (required > 0)")


# ---------------------------------------------------------------------------
# criterion 7: stationary oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_7_stationary_oracles(mmk_5_10):
    exact = stationary_birth_death(mmk_5_10)
    power = stationary_power(mmk_5_10)
    tv_power = tv_distance(exact.distribution, power.distribution)

    residuals = []
    sizes = (100, 1000, 10_000)
    for n in sizes:
        res = stationary_cesaro(mmk_5_10, start=5, n=n)
        residuals.append(res.residual)
    cesaro = stationary_cesaro(mmk_5_10, start=5, n=10_000)
    tv_cesaro = tv_distance(exact.distribution, cesaro.distribution)
    slope = np.polyfit(np.log(sizes), np.log(residuals), 1)[0]
    slope_ok = abs(slope + 1.0) <= 0.15
    report(7, tv_power <= 1e-8 and tv_cesaro <= 1e-2 and slope_ok,
           f"power vs exact TV = {tv_power:.1e}, cesaro(1e4) TV = {tv_cesaro:.1e}, "
           f"residual log-log slope = {slope:.3f}")


# ---------------------------------------------------------------------------
# criterion 8: structural properties
# ---------------------------------------------------------------------------

def test_criterion_8_structural_properties(mmk_2_4, mmk_5_10):
    ok = True
    details = []

    prof_q = curvature_profile(mmk_5_10, 1.0, mmk_5_10.origin_hint)
    ou = build_discrete_ou_chain(0.5, 8.0, 0.1)
    prof_g = curvature_profile(ou, 2.0, ou.origin_hint)
    worst_second_diff = np.inf
    for prof, d0s in ((prof_q, (2.5, 4.0, 8.0)), (prof_g, (4.0, 6.0))):
        for d0 in d0s:
            kd0 = float(prof.envelope(d0))
            upper = 2.0 / prof.s2 if kd0 == 0 else min(
                2.0 / prof.s2, 0.98 / (prof.s2 * kd0))
            grid = np.linspace(upper / 64, upper, 64)
            at = _at_d0(prof, d0)
            vals = np.array([_ln_C(prof, at, a) for a in grid])
            worst_second_diff = min(worst_second_diff, float(np.diff(vals, 2).min()))
            if _exp_or_inf(_ln_C(prof, at, 0.0)) != 1.0:
                ok = False
                details.append(f"C(0, {d0}) != 1")
    convex_ok = worst_second_diff >= -1e-9
    details.append(f"ln C second differences >= {worst_second_diff:.1e}")

    # envelope maximality: raising any breakpoint value by 1e-6 breaks the
    # minorant property at that radius or the non-increasing shape
    kloc = local_curvature(mmk_2_4, 1.0)
    from ricci_bounds import curvature_envelope
    env = curvature_envelope(mmk_2_4, 2, kloc)
    d = mmk_2_4.dist[2]
    maximal = all(
        env.values[j] + 1e-6 > np.min(kloc[np.abs(d - r) <= 1e-12])
        or (j > 0 and env.values[j] + 1e-6 > env.values[j - 1])
        for j, r in enumerate(env.breakpoints))
    details.append(f"envelope maximal minorant: {maximal}")

    geo_line = check_epsilon_geodesic(mmk_2_4, 1.0) is None
    gap_chain = line_chain([0.0, 10.0], np.eye(2))
    geo_gap = check_epsilon_geodesic(gap_chain, 1.0)
    geodesic_ok = geo_line and geo_gap is not None \
        and sorted(geo_gap) == [0, 1] \
        and check_epsilon_geodesic(mmk_2_4, 2.5) is None
    details.append(f"geodesic checker cases: {geodesic_ok}")

    report(8, ok and convex_ok and maximal and geodesic_ok, "; ".join(details))
