import math

import numpy as np
import pytest

from ricci_bounds import (JumpProcessConfig, poissonian_tail_bound,
                          simulate_paths, stationary_laplace_G,
                          stationary_log_G, tail_comparison,
                          tail_shape_witness, transform_I)
from ricci_bounds.jump_process import (clopper_pearson_upper,
                                       empirical_tail_probs,
                                       stationary_laplace_G_T,
                                       stationary_log_G_T)

from dickman import dickman_tail, transform_I_quadrature


# ----------------------------------------------------------------- config

def test_config_rejects_short_horizon():
    with pytest.raises(ValueError, match="horizon"):
        JumpProcessConfig(drift_alpha=1.0, horizon_T=5.0, n_paths=10, seed=0)


def test_config_rejects_bad_alpha():
    with pytest.raises(ValueError):
        JumpProcessConfig(drift_alpha=0.0, horizon_T=25.0, n_paths=10, seed=0)


# ------------------------------------------------------------- simulation

def test_simulation_deterministic():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=20.0, n_paths=5000, seed=42)
    a = simulate_paths(cfg)
    b = simulate_paths(cfg)
    np.testing.assert_array_equal(a, b)


def test_zero_jump_paths_are_exactly_zero():
    cfg = JumpProcessConfig(drift_alpha=50.0, horizon_T=1.0, n_paths=20_000, seed=3)
    x = simulate_paths(cfg)
    frac_zero = float((x == 0.0).mean())
    assert frac_zero == pytest.approx(math.exp(-1.0), abs=0.01)


def test_strong_drift_kills_the_mean():
    cfg = JumpProcessConfig(drift_alpha=50.0, horizon_T=1.0, n_paths=50_000, seed=5)
    x = simulate_paths(cfg)
    # E[X_T] = (1 - exp(-alpha T)) / alpha = 0.02
    assert x.mean() <= 0.05


def test_mean_matches_stationary_value():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=20.0, n_paths=100_000, seed=9)
    x = simulate_paths(cfg)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - 1.0) <= 3 * se


# -------------------------------------------------------------- transform

def test_transform_I_at_zero():
    assert transform_I(0.0) == 0.0


def test_transform_I_series_vs_quadrature():
    assert transform_I(1.0) == pytest.approx(1.3179021514544038, abs=1e-12)
    for lam in (0.5, 1.0, 2.0, 5.0, -1.0, -3.0):
        assert abs(transform_I(lam) - transform_I_quadrature(lam)) <= 1e-9


def test_transform_I_asymptotics():
    lam = 30.0
    assert transform_I(lam) / (math.exp(lam) / lam) == pytest.approx(1.0, abs=0.05)


# ------------------------------------------------------------- transforms G

def test_G_normalization():
    assert stationary_laplace_G(0.0, alpha=1.0) == 1.0


def test_G_derivative_at_zero_gives_mean():
    alpha = 1.0
    h = 1e-6
    deriv = (stationary_laplace_G(h, alpha) - stationary_laplace_G(-h, alpha)) / (2 * h)
    assert deriv == pytest.approx(1.0 / alpha, rel=1e-6)


def test_G_moments_match_monte_carlo():
    alpha = 1.0
    cfg = JumpProcessConfig(drift_alpha=alpha, horizon_T=20.0,
                            n_paths=200_000, seed=11)
    x = simulate_paths(cfg)
    h = 1e-5
    log_g = [stationary_log_G(lam, alpha) for lam in (-h, 0.0, h)]
    mean = (log_g[2] - log_g[0]) / (2 * h)
    var = (log_g[2] - 2 * log_g[1] + log_g[0]) / h ** 2
    se_mean = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - mean) <= 3 * se_mean
    centered = (x - x.mean()) ** 2
    se_var = centered.std() / math.sqrt(x.size)
    assert abs(x.var() - var) <= 3 * se_var


def test_G_T_converges_to_G():
    val_t = stationary_log_G_T(1.0, alpha=1.0, horizon=20.0)
    val = stationary_log_G(1.0, alpha=1.0)
    assert abs(math.exp(val_t - val) - 1.0) <= 1e-6


def test_G_overflow_guard():
    with pytest.raises(OverflowError, match="log"):
        stationary_laplace_G(30.0, alpha=0.01)
    assert stationary_log_G(30.0, alpha=0.01) > 700
    with pytest.raises(OverflowError):
        stationary_laplace_G_T(30.0, alpha=0.01, horizon=5000.0)


# ------------------------------------------------------------- tail bound

def test_poissonian_bound_small_for_large_level():
    assert poissonian_tail_bound(10.0, alpha=1.0) < 1.0


def test_poissonian_bound_decreasing():
    grid = np.linspace(2.0, 50.0, 97)
    vals = [poissonian_tail_bound(float(l), alpha=1.0) for l in grid]
    assert np.all(np.diff(vals) < 0)


def test_poissonian_bound_strong_drift_limit():
    l = 7.0
    assert poissonian_tail_bound(l, alpha=1e9) == pytest.approx(
        math.exp(-l * math.log(l)), rel=1e-6)


def test_poissonian_bound_past_float_range_is_inf():
    # I(ln 12) / 0.001 is about 5.5e3, far past the 709 where exp overflows
    assert poissonian_tail_bound(12.0, 0.001) == math.inf


def test_poissonian_bound_rejects_small_level():
    with pytest.raises(ValueError):
        poissonian_tail_bound(1.0, alpha=1.0)


# ----------------------------------------------------------- comparisons

def test_clopper_pearson_zero_counts():
    up = clopper_pearson_upper(0, 1_000_000)
    assert up == pytest.approx(-math.log(0.005) / 1_000_000, rel=1e-3)
    assert clopper_pearson_upper(10, 10) == 1.0


def test_tail_comparison_dominated():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=20.0,
                            n_paths=200_000, seed=13)
    x = simulate_paths(cfg)
    rows, dominated = tail_comparison(x, [2.0, 3.0, 5.0], alpha=1.0)
    assert dominated
    for row in rows[:2]:
        # plenty of counts at low levels: even the CI upper end is dominated
        assert row["confirmed"]


def test_witness_drops_empty_levels_and_reports_shapes():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=20.0,
                            n_paths=50_000, seed=17)
    x = simulate_paths(cfg)
    report = tail_shape_witness(x, [2.0, 3.0, 4.0, 30.0])
    assert report["dropped_levels"] == [30.0]
    assert len(report["levels"]) == 3
    assert len(report["quad_series"]) == 3
    # Against the exact Dickman law (38.2% on [2, 3, 4]), within three
    # standard errors: -ln p_hat has standard error ~ 1/sqrt(count), and the
    # variation is the ratio of the series' largest and smallest entries.
    levels = report["levels"]
    _, counts = empirical_tail_probs(x, levels)
    neg_log = np.array([-math.log(dickman_tail(l)) for l in levels])
    series = neg_log / (np.array(levels) * np.log(levels))
    exact = series.max() / series.min() - 1.0
    rel_se = 1.0 / (np.sqrt(counts) * neg_log)
    tol = 3.0 * (1.0 + exact) * math.hypot(rel_se[series.argmax()],
                                           rel_se[series.argmin()])
    variation = report["poissonian_normalized"]["variation"]
    assert abs(variation - exact) <= tol, (variation, exact, tol)


def test_empirical_tail_probs_counts():
    probs, counts = empirical_tail_probs(np.array([0.5, 1.5, 2.5, 3.5]), [1.0, 3.0])
    np.testing.assert_array_equal(counts, [3, 1])
    np.testing.assert_allclose(probs, [0.75, 0.25])


def test_witness_rejects_levels_at_or_below_one():
    with pytest.raises(ValueError, match="l > 1"):
        tail_shape_witness(np.array([0.5, 1.5]), [1.0])
    with pytest.raises(ValueError, match="l > 1"):
        tail_shape_witness(np.array([0.5, 1.5, 2.5]), [0.5, 2.0])


def test_witness_rejects_all_levels_dropped():
    with pytest.raises(ValueError, match="every level would be dropped"):
        tail_shape_witness(np.array([0.5, 1.5]), [3.0])
