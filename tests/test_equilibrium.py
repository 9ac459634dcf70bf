import numpy as np
import pytest

from ricci_bounds import (build_discrete_ou_chain, build_mmk_chain,
                          empirical_tail, stationary_birth_death,
                          stationary_cesaro, stationary_power,
                          truncation_audit, tv_distance)
from ricci_bounds.errors import ChainValidationError, PowerIterationError

from conftest import line_chain, star_chain


def swap_chain():
    return line_chain([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])


def null_space_stationary(kernel):
    """Oracle: solve pi (P - I) = 0 with the normalization row appended."""
    n = kernel.shape[0]
    a = np.vstack([(kernel.T - np.eye(n)), np.ones(n)])
    b = np.concatenate([np.zeros(n), [1.0]])
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


# ------------------------------------------------------------ birth-death

def test_reflecting_walk_with_self_loops_is_uniform():
    # p(i, i+-1) = 1/2 with self-loop reflection: solving pi P = pi gives uniform
    chain = line_chain([0, 1, 2], [[0.5, 0.5, 0.0],
                                   [0.5, 0.0, 0.5],
                                   [0.0, 0.5, 0.5]])
    result = stationary_birth_death(chain)
    oracle = null_space_stationary(chain.kernel)
    np.testing.assert_allclose(result.distribution, oracle, atol=1e-12)
    np.testing.assert_allclose(result.distribution, 1 / 3, atol=1e-12)


def test_hard_reflecting_walk_quarter_half_quarter():
    # reflection without self-loops concentrates on the middle state
    chain = line_chain([0, 1, 2], [[0.0, 1.0, 0.0],
                                   [0.5, 0.0, 0.5],
                                   [0.0, 1.0, 0.0]])
    result = stationary_birth_death(chain)
    oracle = null_space_stationary(chain.kernel)
    np.testing.assert_allclose(result.distribution, oracle, atol=1e-12)
    np.testing.assert_allclose(result.distribution, [0.25, 0.5, 0.25], atol=1e-12)


def test_mmk_stationary_ratios(mmk_2_4):
    pi = stationary_birth_death(mmk_2_4).distribution
    n0, k = 2, 4
    for n in range(0, 12):
        assert pi[n + 1] / pi[n] == pytest.approx(n0 / min(n + 1, k), rel=1e-12)


def test_birth_death_fixed_point(mmk_5_10):
    result = stationary_birth_death(mmk_5_10)
    assert result.residual <= 1e-12
    assert result.distribution.sum() == pytest.approx(1.0, abs=1e-12)


def test_birth_death_rejects_dense_kernel():
    chain = build_discrete_ou_chain(0.5, 4.0, 0.5)
    with pytest.raises(ChainValidationError, match="tridiagonal"):
        stationary_birth_death(chain)


# ------------------------------------------------------------------ power

def test_power_identity_kernel_returns_start():
    chain = line_chain([0.0, 1.0, 2.0], np.eye(3))
    result = stationary_power(chain)
    np.testing.assert_allclose(result.distribution, 1 / 3, atol=1e-15)
    assert result.residual <= 1e-15


def test_power_matches_birth_death(mmk_5_10):
    exact = stationary_birth_death(mmk_5_10)
    power = stationary_power(mmk_5_10)
    assert tv_distance(exact.distribution, power.distribution) <= 1e-8


def test_power_oscillates_on_periodic_chain():
    # a periodic star: the centre moves to a uniform leaf, each leaf moves back;
    # from the uniform start the iterates alternate with (3/4, 1/12, 1/12, 1/12)
    # forever, and the error carries the residual
    with pytest.raises(PowerIterationError) as err:
        stationary_power(star_chain())
    assert err.value.residual == pytest.approx(0.5)


def test_power_uniform_start_is_already_stationary_on_swap():
    result = stationary_power(swap_chain())
    np.testing.assert_allclose(result.distribution, 0.5, atol=1e-15)


# ----------------------------------------------------------------- cesaro

def test_cesaro_n_zero_is_point_mass(mmk_2_4):
    result = stationary_cesaro(mmk_2_4, start=2, n=0)
    expect = np.zeros(mmk_2_4.n)
    expect[2] = 1.0
    np.testing.assert_allclose(result.distribution, expect, atol=1e-15)


def test_cesaro_swap_odd_exact_uniform():
    result = stationary_cesaro(swap_chain(), start=0, n=1)
    np.testing.assert_allclose(result.distribution, 0.5, atol=1e-15)
    assert result.residual <= 1e-15


def test_cesaro_converges_with_one_over_n_residual(mmk_2_4):
    exact = stationary_birth_death(mmk_2_4)
    residuals = {}
    for n in (100, 1000, 10_000):
        res = stationary_cesaro(mmk_2_4, start=2, n=n)
        residuals[n] = res.residual
        assert res.residual * (n + 1) <= 1.0 + 1e-9
    big = stationary_cesaro(mmk_2_4, start=2, n=10_000)
    assert tv_distance(big.distribution, exact.distribution) <= 1e-2
    # residual ~ C/(n+1): consecutive ratios track the n ratio
    assert residuals[100] / residuals[1000] == pytest.approx(10, rel=0.2)
    assert residuals[1000] / residuals[10_000] == pytest.approx(10, rel=0.2)


# ------------------------------------------------------------------ tails

def test_empirical_tail_edge_levels(mmk_2_4):
    pi = stationary_birth_death(mmk_2_4)
    curve = empirical_tail(pi, mmk_2_4, 2, [0.0, 1000.0])
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
    assert curve.values[1] == 0.0


def test_empirical_tail_matches_direct_sum(mmk_2_4):
    pi = stationary_birth_death(mmk_2_4)
    curve = empirical_tail(pi, mmk_2_4, 2, [3.0])
    direct = sum(pi.distribution[n] for n in range(mmk_2_4.n) if abs(n - 2) >= 3)
    assert curve.values[0] == pytest.approx(direct, abs=1e-15)


def test_empirical_tail_nonincreasing(mmk_5_10):
    pi = stationary_birth_death(mmk_5_10)
    levels = np.linspace(0, 40, 81)
    curve = empirical_tail(pi, mmk_5_10, 5, levels)
    assert np.all(np.diff(curve.values) <= 1e-15)


def test_truncation_audit():
    roomy = build_mmk_chain(2, 4, 60)
    assert truncation_audit(stationary_birth_death(roomy))
    tight = build_mmk_chain(2, 4, 10)
    assert not truncation_audit(stationary_birth_death(tight))
