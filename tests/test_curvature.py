import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from ricci_bounds import (MetricChain, attraction_rho, build_discrete_ou_chain,
                          build_mmk_chain, curvature_envelope,
                          curvature_profile, curvature_profiles, epsilon_sweep,
                          load_chain,
                          local_curvature, subgaussian_s2, w1_to_point)
from ricci_bounds import curvature, transport
from ricci_bounds.errors import DegenerateKernelError, EmptyAnnulusError

from conftest import (cube_chain, irregular_line_chain, line_chain,
                      random_graph_chain, write_chain_json)
from reference_oracles import kappa_pair, support_s2_loop


def mmk_kappa_closed_form(n0, k, x, y):
    x, y = min(x, y), max(x, y)
    if y <= k:
        return 1.0 / (n0 + k)
    if x < k < y:
        return (k - x) / (y - x) / (n0 + k)
    return 0.0


# ------------------------------------------------------------- kappa_pair

def test_kappa_pair_three_branches(mmk_2_4):
    assert kappa_pair(mmk_2_4, 1, 2) == pytest.approx(1 / 6, abs=1e-12)
    assert kappa_pair(mmk_2_4, 3, 5) == pytest.approx(1 / 12, abs=1e-12)
    assert kappa_pair(mmk_2_4, 5, 6) == pytest.approx(0.0, abs=1e-12)


def test_kappa_pair_symmetric_and_bounded(mmk_5_10):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, y = rng.choice(mmk_5_10.n - 1, size=2, replace=False)
        k_xy = kappa_pair(mmk_5_10, int(x), int(y))
        k_yx = kappa_pair(mmk_5_10, int(y), int(x))
        assert abs(k_xy - k_yx) <= 1e-9
        assert k_xy <= 1.0


def test_kappa_pair_rejects_diagonal(mmk_2_4):
    with pytest.raises(ValueError):
        kappa_pair(mmk_2_4, 3, 3)


# -------------------------------------------------------- local curvature

def test_local_curvature_mmk_plateau_and_zero(mmk_2_4):
    kloc = local_curvature(mmk_2_4, 1.0)
    np.testing.assert_allclose(kloc[:4], 1 / 6, atol=1e-12)      # n <= k-1
    np.testing.assert_allclose(kloc[4:-1], 0.0, atol=1e-12)      # k <= n < trunc


@pytest.mark.parametrize("source", ["built", "loaded", "irregular"])
def test_local_curvature_matches_pair_route(mmk_5_10, tmp_path, source):
    # the CDF route against the minimum of the certified LP over each ball
    if source == "irregular":
        chain = irregular_line_chain(np.random.default_rng(0))
        eps = float(chain.dist[1, 5])      # the pair (1, 5) sits on the ball's edge
        xs = range(chain.n)
    else:
        chain = mmk_5_10
        if source == "loaded":             # inferred coords decrease with the index
            chain = load_chain(write_chain_json(tmp_path / "mmk.json", chain.points,
                                                chain.dist, chain.kernel))
            assert chain.coords[0] > chain.coords[-1]
        eps = 3.0
        xs = np.random.default_rng(4).choice(chain.n - 4, size=6, replace=False)
    kloc = local_curvature(chain, eps)
    for x in map(int, xs):
        ball = [y for y in range(chain.n) if 0 < chain.dist[x, y] <= eps]
        ref = min(kappa_pair(chain, x, y) for y in ball)
        assert kloc[x] == pytest.approx(ref, abs=1e-9), x
    if source == "irregular":              # and that edge pair sets K_eps at 1
        assert kloc[1] == pytest.approx(kappa_pair(chain, 1, 5), abs=1e-9)


def test_near_line_metric_takes_the_lp_route(tmp_path):
    # |i - j| with d(0, 5) shortened by 5e-6: within numpy's default rtol of a
    # line metric, where the CDF route would be off by 6.6e-7
    i = np.arange(6.0)
    dist = np.abs(i[:, None] - i[None, :])
    dist[0, 5] = dist[5, 0] = 5.0 - 5e-6
    kernel = np.random.default_rng(0).random((6, 6))
    kernel /= kernel.sum(axis=1, keepdims=True)
    chain = load_chain(write_chain_json(tmp_path / "near.json", map(str, range(6)),
                                        dist, kernel))
    assert chain.coords is None
    xs, ys, kap = curvature._pair_curvature_lp(chain, 5.0)
    lp = np.full(chain.n, np.inf)
    np.minimum.at(lp, xs, kap)
    np.minimum.at(lp, ys, kap)
    np.testing.assert_array_equal(local_curvature(chain, 5.0), lp)


def test_local_curvature_ou_near_alpha():
    chain = build_discrete_ou_chain(0.5, 10.0, 0.05)
    kloc = local_curvature(chain, 0.5)
    assert np.max(np.abs(kloc - 0.5)) <= 2 * 0.05


@pytest.mark.parametrize("p", [0.2, 0.7])
def test_local_curvature_cube_is_one_over_n(p):
    # non-line metric: every pair goes through the batched certified LP
    chain = cube_chain(3, p)
    assert chain.coords is None
    kloc = local_curvature(chain, 1.0)
    np.testing.assert_allclose(kloc, 1 / 3, rtol=0, atol=1e-9)


@pytest.mark.parametrize("batch_vars", [None, 7])
@pytest.mark.parametrize("eps", [3.0, 5.0])
def test_local_curvature_graph_matches_pair_minimum(monkeypatch, batch_vars, eps):
    if batch_vars is not None:       # many small LP groups instead of one
        monkeypatch.setattr(transport, "LP_GROUP_VARS", batch_vars)
    base = random_graph_chain(np.random.default_rng(8))
    kernel = base.kernel.copy()
    x0, y0 = np.argwhere((base.dist > 0) & (base.dist <= 3.0))[0]
    kernel[y0] = kernel[x0]          # identical rows: W1 = 0, kappa = 1
    chain = MetricChain(points=base.points, dist=base.dist, kernel=kernel)
    kloc = local_curvature(chain, eps)
    for x in range(chain.n):
        ball = [y for y in range(chain.n) if 0 < chain.dist[x, y] <= eps]
        ref = min(kappa_pair(chain, x, y) for y in ball)
        assert kloc[x] == pytest.approx(ref, abs=1e-9), x
    assert kappa_pair(chain, int(x0), int(y0)) == 1.0


def test_local_curvature_warns_on_isolated_points():
    chain = line_chain([0.0, 1.0, 5.0], np.eye(3))
    with pytest.warns(UserWarning, match="no neighbour"):
        kloc = local_curvature(chain, 1.5)
    assert np.isinf(kloc[2])


# --------------------------------------------------------------- envelope

def test_envelope_mmk_eps1(mmk_2_4):
    env = curvature_envelope(mmk_2_4, 2, local_curvature(mmk_2_4, 1.0))
    for r in range(0, 10):
        expect = (1 / 6) if r < 2 else 0.0
        assert env(float(r)) == pytest.approx(expect, abs=1e-12)


def test_envelope_mmk_eps3(mmk_2_4):
    env = curvature_envelope(mmk_2_4, 2, local_curvature(mmk_2_4, 3.0))
    for r in range(0, 6):
        expect = (1 / 6) * min(1.0, max(0.0, (2 - r) / 3))
        assert env(float(r)) == pytest.approx(expect, abs=1e-12)


def test_envelope_constant_curvature_chain():
    chain = build_discrete_ou_chain(0.5, 6.0, 0.1)
    kloc = local_curvature(chain, 1.0)
    env = curvature_envelope(chain, chain.origin_hint, kloc)
    assert np.max(env.values) - np.min(env.values) <= 1e-10
    assert env(0.0) == pytest.approx(float(np.min(kloc)), abs=1e-15)


def test_envelope_minorant_and_monotone(mmk_5_10):
    kloc = local_curvature(mmk_5_10, 2.0)
    env = curvature_envelope(mmk_5_10, 5, kloc)
    d = mmk_5_10.dist[5]
    assert np.all(env(d) <= kloc + 1e-9)
    assert np.all(np.diff(env.values) <= 1e-15)
    assert np.all(env.values >= 0.0)


def test_envelope_holds_the_first_real_value_over_leading_isolated_radii():
    # the origin and the radius-2 point have empty eps-balls (K_eps = +inf);
    # radius 5 is two points, and 5 + 1e-13 joins their breakpoint
    chain = line_chain([0.0, 2.0, 5.0, -5.0, 5.0 + 1e-13, 6.0], np.eye(6))
    kloc = np.array([np.inf, np.inf, 0.4, 0.3, 0.2, 0.5])
    env = curvature_envelope(chain, 0, kloc)
    assert env.breakpoints.tolist() == [0.0, 2.0, 5.0, 6.0]
    assert env.values.tolist() == [0.2, 0.2, 0.2, 0.2]
    kloc[5] = -0.1
    assert curvature_envelope(chain, 0, kloc).values.tolist() == [0.2, 0.2, 0.2, 0.0]


def test_envelope_maximality(mmk_2_4):
    # raising any breakpoint value by 1e-6 must yield an illegal candidate:
    # either the minorant property breaks at a point at that distance, or the
    # raised step breaks the non-increasing shape
    kloc = local_curvature(mmk_2_4, 1.0)
    env = curvature_envelope(mmk_2_4, 2, kloc)
    d = mmk_2_4.dist[2]
    for j, r in enumerate(env.breakpoints):
        raised = env.values[j] + 1e-6
        breaks_minorant = raised > np.min(kloc[np.abs(d - r) <= 1e-12])
        breaks_monotone = j > 0 and raised > env.values[j - 1]
        assert breaks_minorant or breaks_monotone, f"breakpoint {r} not binding"


# ------------------------------------------------------------------- rho

def test_rho_mmk_eps1(mmk_2_4):
    assert attraction_rho(mmk_2_4, 1.0, 2) == pytest.approx(1 / 6, abs=1e-12)


def test_rho_mmk_eps3(mmk_2_4):
    assert attraction_rho(mmk_2_4, 3.0, 2) == pytest.approx(1 / 3, abs=1e-12)


def test_rho_ou_matches_folded_normal_drift():
    # drift at distance eps: eps - E|N((1-alpha) eps, 1)|, exact via erf
    alpha, eps, step = 0.5, 4.0, 0.05
    chain = build_discrete_ou_chain(alpha, 10.0, step)
    rho = attraction_rho(chain, eps, chain.origin_hint)
    m = (1 - alpha) * eps
    drift = eps - m * erf(m / np.sqrt(2)) - np.sqrt(2 / np.pi) * np.exp(-m * m / 2)
    assert abs(rho - drift) <= 2 * step


def test_rho_empty_annulus():
    chain = line_chain([0.0, 1.0], np.eye(2))
    with pytest.raises(EmptyAnnulusError, match="larger epsilon"):
        attraction_rho(chain, 0.4, 0)


def test_rho_empty_annulus_names_the_side_eps_misses():
    # with no point at d >= eps, eps exceeds every distance and must shrink;
    # with points past 2 eps but none in [eps, 2 eps] it must grow
    chain = line_chain([0.0, 1.0, 5.0], np.eye(3))
    with pytest.raises(EmptyAnnulusError, match="exceeds every distance .* smaller epsilon"):
        attraction_rho(chain, 5.5, 0)
    with pytest.raises(EmptyAnnulusError, match="larger epsilon"):
        attraction_rho(chain, 2.0, 0)


def test_rho_one_step_drift_guarantee(mmk_5_10):
    # every annulus point moves at least rho closer to the origin in W1
    eps, origin = 2.0, 5
    rho = attraction_rho(mmk_5_10, eps, origin)
    d = mmk_5_10.dist[origin]
    annulus = np.nonzero((d >= eps) & (d <= 2 * eps))[0]
    assert annulus.size > 0
    for x in annulus:
        assert w1_to_point(mmk_5_10, int(x), origin) <= d[x] - rho + 1e-9


# ------------------------------------------------------------------- s^2

def test_s2_hoeffding_mmk(mmk_2_4, mmk_5_10):
    assert subgaussian_s2(mmk_2_4) == 1.0
    assert subgaussian_s2(mmk_5_10) == 1.0


@pytest.mark.parametrize("chain", [
    build_mmk_chain(2, 4, 40), build_mmk_chain(25, 27, 300), cube_chain(3, 0.2),
], ids=["mmk_2_4", "mmk_25_27", "cube3"])
def test_s2_is_the_row_by_row_support_bound(chain):
    assert subgaussian_s2(chain) == support_s2_loop(chain)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from([random_graph_chain, irregular_line_chain]),
       seed=st.integers(0, 2**32 - 1))
def test_s2_is_the_row_by_row_support_bound_on_ragged_supports(kind, seed):
    chain = kind(np.random.default_rng(seed))
    assert subgaussian_s2(chain) == support_s2_loop(chain)


def test_s2_gaussian_variance_paths():
    chain = build_discrete_ou_chain(0.5, 6.0, 0.1)
    assert subgaussian_s2(chain) == 1.0


def test_s2_degenerate_identity_kernel():
    chain = line_chain([0.0, 1.0, 2.0], np.eye(3))
    with pytest.raises(DegenerateKernelError):
        subgaussian_s2(chain)


# ----------------------------------------------------------------- profile

def test_profile_assembles_consistently(mmk_2_4):
    profile = curvature_profile(mmk_2_4, 1.0, mmk_2_4.origin_hint)
    assert profile.origin == 2
    assert profile.rho == pytest.approx(1 / 6, abs=1e-12)
    assert profile.j0 == pytest.approx(2 * 2 / 6, abs=1e-12)
    assert profile.s2 == 1.0
    # j0 is recomputable from transport
    assert profile.j0 == pytest.approx(w1_to_point(mmk_2_4, 2, 2), abs=1e-9)


def _assert_profiles_match(chain, epsilons, origin, check):
    """Each eps's profile from one multi-eps pass against its own one-eps pass."""
    for eps, profile in zip(epsilons, curvature_profiles(chain, epsilons, origin)):
        if isinstance(profile, EmptyAnnulusError):
            with pytest.raises(EmptyAnnulusError, match=re.escape(str(profile))):
                curvature_profile(chain, eps, origin)
            continue
        alone = curvature_profile(chain, eps, origin)
        assert (profile.epsilon, profile.origin) == (alone.epsilon, alone.origin)
        assert (profile.rho, profile.j0, profile.s2) == (alone.rho, alone.j0, alone.s2)
        np.testing.assert_array_equal(profile.envelope.breakpoints,
                                      alone.envelope.breakpoints)
        check(profile.kappa_local, alone.kappa_local)
        check(profile.envelope.values, alone.envelope.values)


def _bitwise(a, b):
    np.testing.assert_array_equal(a, b)


def _within_1e_12(a, b):
    np.testing.assert_array_equal(np.isinf(a), np.isinf(b))
    np.testing.assert_allclose(a[np.isfinite(a)], b[np.isfinite(b)], rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("ignore:.*no neighbour within")
@pytest.mark.parametrize("make, epsilons", [
    (lambda: build_mmk_chain(5, 10, 60), [1.0, 2.0, 3.0, 5.0, 8.0]),
    (lambda: build_mmk_chain(25, 30, 160), [4.0, 1.0, 5.0, 15.0, 9.0, 200.0]),
    (lambda: build_discrete_ou_chain(0.5, 10.0, 0.05), [0.5, 3.0, 1.5, 2.0]),
    (lambda: irregular_line_chain(np.random.default_rng(8)), [0.5, 1.0, 2.5, 4.0, 7.0]),
], ids=["mmk_5_10", "mmk_25_30", "ou", "irregular_line"])
def test_line_profiles_from_one_pass_equal_one_eps_profiles_bit_for_bit(make, epsilons):
    chain = make()
    _assert_profiles_match(chain, epsilons, chain.origin_hint or 0, _bitwise)


@pytest.mark.filterwarnings("ignore:.*no neighbour within")
@pytest.mark.parametrize("seed", range(4))
def test_graph_profiles_from_one_pass_equal_one_eps_profiles(seed):
    chain = random_graph_chain(np.random.default_rng(seed), n_points=14)
    _assert_profiles_match(chain, [3.0, 1.0, 2.0, 4.0], 0, _within_1e_12)


@pytest.mark.parametrize("p", [0.1, 0.3])
def test_cube_profiles_from_one_pass_equal_one_eps_profiles(p):
    _assert_profiles_match(cube_chain(6, p), [1.0, 2.0, 3.0], 0, _within_1e_12)


def test_library_rejects_an_origin_outside_the_chain():
    # a negative index would otherwise select state n-3 without a word
    chain = build_mmk_chain(5, 10, 50)
    with pytest.raises(ValueError, match=r"origin -3 .* n = 51"):
        curvature_profile(chain, 2.0, origin=-3)
    with pytest.raises(ValueError, match=r"origin -3 .* n = 51"):
        epsilon_sweep(chain, -3, [2.0], 20.0)
