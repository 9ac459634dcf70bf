import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import search_oracle
from ricci_bounds import bounds as bounds_mod
from ricci_bounds import (CurvatureProfile, F_of, Phi_of, StepFunction, bound_princ,
                          bound_theorem1, build_mmk_chain, curvature_profile,
                          epsilon_sweep, phi_of, search_params,
                          stationary_birth_death, empirical_tail,
                          theorem1_params)
from ricci_bounds.bounds import (_at_d0, _conditions, _exp_or_inf, _ln_bound, _ln_C,
                                 _ln_one_minus_exp, _ln_prefactor, admissibility,
                                 ln_C0_of, paper_default_d0)
from ricci_bounds.chain_model import build_discrete_ou_chain
from ricci_bounds.errors import (InadmissibleParamsError, InfeasibleSearchError,
                                 NoAttractivePointError)

from conftest import biased_reflecting_walk


def ln_C(prof, alpha, d0):
    """ln C_{alpha,d0}, from the package's terms at d0."""
    return _ln_C(prof, _at_d0(prof, d0), alpha)


def synthetic_profile(eps=1.0, rho=0.3, j0=0.0, s2=1.0, k_const=0.0, k_until=np.inf):
    """Hand-built profile with constant envelope k_const on [0, k_until)."""
    if np.isinf(k_until):
        env = StepFunction([0.0], [k_const])
    else:
        env = StepFunction([0.0, k_until], [k_const, 0.0])
    return CurvatureProfile(epsilon=eps, origin=0,
                            kappa_local=np.array([k_const]), envelope=env,
                            rho=rho, j0=j0, s2=s2)


@pytest.fixture(scope="module")
def prof_5_10():
    chain = build_mmk_chain(5, 10, 60)
    return chain, curvature_profile(chain, 1.0, chain.origin_hint)


# ------------------------------------------------------------------- F

def test_F_branches_flat_envelope():
    prof = synthetic_profile(rho=0.25, j0=0.4, k_const=0.0)
    assert F_of(prof, 0.5) == -0.4
    assert F_of(prof, 1.5) == 0.25
    assert F_of(prof, 3.0) == 0.25  # zero envelope adds nothing


def test_F_constant_envelope():
    prof = synthetic_profile(rho=0.1, k_const=0.05)
    assert F_of(prof, 6.0) == pytest.approx(0.1 + 0.05 * (6.0 - 2.0), abs=1e-15)


def test_F_mmk(mmk_2_4):
    prof = curvature_profile(mmk_2_4, 1.0, mmk_2_4.origin_hint)
    assert F_of(prof, 4.0) == pytest.approx(1 / 6, abs=1e-12)  # envelope dead past 2
    assert F_of(prof, 1.5) == pytest.approx(1 / 6, abs=1e-12)


def test_F_array_matches_scalar(prof_5_10):
    _, prof = prof_5_10
    levels = np.concatenate([np.linspace(0.0, 12.0, 241), [1.0, 2.0, 2.0 - 1e-15]])
    values = F_of(prof, levels)
    assert values.shape == levels.shape
    assert values.tolist() == [F_of(prof, float(l)) for l in levels]
    assert type(F_of(prof, 3.5)) is float


# ------------------------------------------------------------ StepFunction

def _exact_double_integral(env, base, l):
    """int_base^l int_base^u f in exact rationals, segment by segment."""
    base, l = Fraction(base), Fraction(l)
    if l <= base:
        return Fraction(0)
    b = [Fraction(x) for x in env.breakpoints]
    cuts = sorted({base, l} | {x for x in b if base < x < l})
    total = g = Fraction(0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v = Fraction(env.values[max([i for i, x in enumerate(b) if x <= lo], default=0)])
        w = hi - lo
        total += g * w + v * w * w / 2
        g += v * w
    return total


@st.composite
def _double_integral_cases(draw):
    """A nonnegative step function, a base, and levels below, at and above it."""
    widths = draw(st.lists(st.floats(0.05, 6.0), max_size=6))
    values = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0),
                           min_size=len(widths) + 1, max_size=len(widths) + 1))
    env = StepFunction(np.concatenate([[0.0], np.cumsum(widths)]), values)
    base = draw(st.floats(-1.0, sum(widths) + 2.0))
    levels = draw(st.lists(st.floats(base - 2.0, base + 40.0), min_size=1, max_size=8))
    return env, base, np.array(levels + [base])


@settings(max_examples=150, deadline=None)
@given(case=_double_integral_cases())
@example(case=(StepFunction([0.0, 2.0, 5.0], [0.1, 0.7, 0.0]), 3.0,
               np.array([1.0, 3.0, 3.0 + 1e-9, 4.0, 5.0, 9.0])))
def test_double_integral_is_the_exact_rational_value(case):
    env, base, levels = case
    got = env.double_integral(base, levels)
    assert got.tolist() == [env.double_integral(base, float(l)) for l in levels]
    assert type(env.double_integral(base, float(levels[0]))) is float
    assert np.all(got[levels <= base] == 0.0)
    for l, value in zip(levels, got):
        exact = _exact_double_integral(env, base, l)
        # relative, down to the smallest normal float, where underflow starts
        assert abs(Fraction(value) - exact) <= exact * Fraction(1e-11) + Fraction(2.3e-308)


# ------------------------------------------------------------------- phi

def test_phi_zero_envelope_zero_drift():
    prof = synthetic_profile(rho=0.3, j0=0.0, k_const=0.0)
    assert phi_of(prof, 2.0) == pytest.approx(0.3 * 1.0, abs=1e-15)


def test_phi_constant_envelope_closed_form():
    c, rho, eps = 0.07, 0.2, 1.0
    prof = synthetic_profile(eps=eps, rho=rho, k_const=c)
    l = 5.0
    expect = phi_of(prof, 2 * eps) + rho * (l - 2 * eps) + c * (l - 2 * eps) ** 2 / 2
    assert phi_of(prof, l) == pytest.approx(expect, abs=1e-12)


def test_phi_matches_quadrature(mmk_2_4):
    # midpoint quadrature oracle, integrated branch by branch so the jump of
    # F at eps never straddles a cell; F is only evaluated pointwise
    prof = curvature_profile(mmk_2_4, 1.0, mmk_2_4.origin_hint)
    eps, l = prof.epsilon, 4.0
    total = 0.0
    for a, b in ((0.0, eps), (eps, 2 * eps), (2 * eps, l)):
        edges = np.linspace(a, b, 400_001)
        mids = (edges[:-1] + edges[1:]) / 2
        total += float(np.sum(F_of(prof, mids) * np.diff(edges)))
    assert phi_of(prof, l) == pytest.approx(total, abs=1e-9)


@pytest.mark.filterwarnings("error")   # past the float range: inf, no warning
def test_phi_past_float_range_is_inf():
    # the envelope stays positive to infinity, so K l^2 / 2 overflows
    assert phi_of(synthetic_profile(rho=0.3, k_const=0.1), 1e300) == math.inf


@pytest.mark.filterwarnings("error")   # past the float range: inf, no warning
@pytest.mark.parametrize("make", [lambda p: p[1], lambda p: synthetic_profile(
    eps=1.5, rho=0.2, j0=0.3, k_const=0.1, k_until=7.0)], ids=["mmk_5_10", "synthetic"])
def test_phi_and_Phi_arrays_match_scalar(prof_5_10, make):
    prof = make(prof_5_10)
    eps = prof.epsilon
    levels = np.concatenate([np.linspace(0.0, 12.0, 241),
                             [eps, 2 * eps, 2 * eps - 1e-15, 7.0 + 1e-12, 1e300]])
    assert phi_of(prof, levels).tolist() == [phi_of(prof, float(l)) for l in levels]
    above = levels[levels >= 2 * eps]
    assert Phi_of(prof, above).tolist() == [Phi_of(prof, float(l)) for l in above]
    assert type(phi_of(prof, 3.5)) is float and type(Phi_of(prof, 3.5)) is float


# ------------------------------------------------------------------- Phi

def test_Phi_zero_envelope():
    prof = synthetic_profile(rho=0.3, k_const=0.0)
    assert Phi_of(prof, 7.0) == pytest.approx(0.3 * 7.0, abs=1e-15)


def test_Phi_constant_envelope():
    c, rho, eps = 0.04, 0.15, 1.0
    prof = synthetic_profile(eps=eps, rho=rho, k_const=c)
    l = 6.0
    assert Phi_of(prof, l) == pytest.approx(rho * l + c * (l - 2 * eps) ** 2 / 2,
                                            abs=1e-12)


def test_Phi_rejects_below_2eps():
    prof = synthetic_profile()
    with pytest.raises(ValueError):
        Phi_of(prof, 1.0)


def test_Phi_matches_double_quadrature(prof_5_10):
    # envelope breakpoints are integers, so a grid with edges on the integers
    # makes midpoint-based cumulative integration of the step function exact
    _, prof = prof_5_10
    l = 9.0
    cells_per_unit = 100_000
    edges = 2.0 + np.arange(int((l - 2.0) * cells_per_unit) + 1) / cells_per_unit
    mids = (edges[:-1] + edges[1:]) / 2
    widths = np.diff(edges)
    inner = np.concatenate([[0.0], np.cumsum(prof.envelope(mids) * widths)])
    outer = np.trapezoid(inner, edges)
    assert Phi_of(prof, l) == pytest.approx(prof.rho * l + outer, abs=1e-7)


# -------------------------------------------------------------- constants

def test_C_at_alpha_zero_is_one():
    prof = synthetic_profile(rho=0.2, k_const=0.3)
    assert _exp_or_inf(ln_C(prof, 0.0, 3.0)) == 1.0


def test_C_zero_curvature_closed_form():
    prof = synthetic_profile(rho=0.2, k_const=0.0)
    alpha, d0 = 0.8, 4.0
    f = F_of(prof, d0)
    assert _exp_or_inf(ln_C(prof, alpha, d0)) == pytest.approx(
        math.exp(-alpha * f * f * (1 - alpha / 2)), abs=1e-15)


def test_C_paper_default_bound(prof_5_10):
    # with the default (alpha, d0), C is at most exp(-rho^2 / (4 s^2))
    _, prof = prof_5_10
    params = theorem1_params(prof)
    assert prof.envelope(params.d0) <= 1.0
    c = _exp_or_inf(ln_C(prof, params.alpha, params.d0))
    assert c <= math.exp(-prof.rho ** 2 / (4 * prof.s2)) + 1e-15


def test_C_domain_error():
    prof = synthetic_profile(rho=0.2, k_const=0.5)
    with pytest.raises(InadmissibleParamsError):
        ln_C(prof, 2.5, 3.0)  # alpha*s2*K = 1.25 >= 1


def test_Cprime_trivial_cases():
    prof = synthetic_profile(rho=0.2, j0=0.0, k_const=0.0)
    # J + eps = 1 <= d0 - F(d0) = 4 - 0.2
    assert _exp_or_inf(1.0 * _at_d0(prof, 4.0).rate) == 1.0
    prof2 = synthetic_profile(rho=0.2, j0=5.0, k_const=0.0)
    assert _exp_or_inf(0.0 * _at_d0(prof2, 4.0).rate) == 1.0


def test_Cprime_paper_default_bound(mmk_2_4):
    prof = curvature_profile(mmk_2_4, 1.0, mmk_2_4.origin_hint)
    params = theorem1_params(prof)
    ln_cp = math.log(_exp_or_inf(params.alpha * _at_d0(prof, params.d0).rate))
    eps, s2, rho = prof.epsilon, prof.s2, prof.rho
    cap = (3 * eps / (2 * s2)) * max(3 * eps, rho + math.log(2) * s2 / rho)
    assert ln_cp <= cap + 1e-12


def test_C_past_float_range_is_inf():
    # the example-ou --alpha 0.5 profile, at a grid candidate with ln C = 4.2e9
    chain = build_discrete_ou_chain(0.5, 10.0, 0.05)
    prof = curvature_profile(chain, 3.0, origin=chain.origin_hint)
    assert ln_C(prof, 1.999999998, 6.0) > 1e9
    assert _exp_or_inf(ln_C(prof, 1.999999998, 6.0)) == math.inf


def test_Cprime_past_float_range_is_inf():
    prof = synthetic_profile(rho=0.3, j0=2000.0)
    assert 2.0 * _at_d0(prof, 2.0).rate == pytest.approx(1199.58, rel=1e-12)
    assert _exp_or_inf(2.0 * _at_d0(prof, 2.0).rate) == math.inf


def test_princ_past_float_range_is_inf():
    # ln C' = 1139.6 at (1.9, 2.0): the bound overflows to +inf, with no warning
    prof = synthetic_profile(rho=0.3, j0=2000.0)
    curve = bound_princ(prof, admissibility(prof, 1.9, 2.0), [2.0, 3.0])
    assert curve.values.tolist() == [math.inf, math.inf]


def test_C0_past_float_range_is_inf():
    prof = synthetic_profile(rho=1e-3)
    assert ln_C0_of(prof) > 1000.0
    assert _exp_or_inf(ln_C0_of(prof)) == math.inf


def test_ln_one_minus_exp_keeps_bits_and_resolves_tiny_arguments():
    for x in (-1e-3, -0.5, -3.0, -40.0):
        assert _ln_one_minus_exp(x) == math.log1p(-math.exp(x))
    # e^x rounds to 1 here, where log1p(-e^x) would be log1p(-1)
    assert _ln_one_minus_exp(-9e-18) == pytest.approx(math.log(9e-18), rel=1e-15)


def test_C0_is_inf_where_rho_squared_underflows():
    # rho^2 / (4 s^2) underflows to 0, so ln(1 - e^-0) must read -inf
    assert _ln_one_minus_exp(-0.0) == -math.inf
    prof = synthetic_profile(rho=1e-170)
    assert ln_C0_of(prof) == math.inf
    assert _exp_or_inf(ln_C0_of(prof)) == math.inf


def test_ln_prefactor_is_inf_where_C_is_at_least_one():
    prof = synthetic_profile(rho=0.01, k_const=0.5)
    assert ln_C(prof, 1.0, 2.0) >= 0
    assert _ln_prefactor(prof, _at_d0(prof, 2.0), 1.0) == math.inf


def test_paper_default_d0():
    assert paper_default_d0(synthetic_profile(eps=1.5, rho=0.25, s2=2.0)) == \
        pytest.approx(3.0 + math.log(2) * 8.0)
    with pytest.raises(NoAttractivePointError, match="no attractive point"):
        paper_default_d0(synthetic_profile(rho=0.0))


# ------------------------------------------------------------ bound curves

def test_princ_at_d0_is_prefactor():
    prof = synthetic_profile(rho=0.3, k_const=0.0)
    params = admissibility(prof, 1.0, 3.0)
    assert params.admissible
    curve = bound_princ(prof, params, [3.0])
    c = _exp_or_inf(ln_C(prof, 1.0, 3.0))
    cp = _exp_or_inf(1.0 * _at_d0(prof, 3.0).rate)
    assert curve.values[0] == pytest.approx(cp * c / (1 - c), rel=1e-12)


def test_princ_with_C_rounding_to_one():
    # ln C = -9e-18: admissible, though exp(ln C) rounds to 1
    prof = synthetic_profile(rho=0.3, k_const=0.0)
    params = admissibility(prof, 1e-16, 3.0)
    assert params.admissible
    curve = bound_princ(prof, params, [3.0])
    assert curve.values[0] == pytest.approx(1 / 9e-18, rel=1e-12)


def test_princ_zero_curvature_is_exponential():
    prof = synthetic_profile(rho=0.3, k_const=0.0)
    params = admissibility(prof, 1.2, 3.0)
    levels = np.linspace(3.0, 20.0, 40)
    curve = bound_princ(prof, params, levels)
    slopes = np.diff(-np.log(curve.values)) / np.diff(levels)
    np.testing.assert_allclose(slopes, 1.2 * 0.3, atol=1e-10)


def test_princ_rejects_inadmissible():
    prof = synthetic_profile(rho=0.01, k_const=0.5)  # F too weak vs K
    params = admissibility(prof, 1.0, 2.0)
    assert not params.admissible
    with pytest.raises(InadmissibleParamsError) as err:
        bound_princ(prof, params, [3.0])
    assert err.value.report is not None


def test_princ_rejects_levels_below_d0():
    prof = synthetic_profile(rho=0.3, k_const=0.0)
    params = admissibility(prof, 1.0, 3.0)
    with pytest.raises(ValueError):
        bound_princ(prof, params, [2.0, 4.0])


def test_theorem1_zero_curvature_closed_form():
    prof = synthetic_profile(rho=0.3, k_const=0.0)
    d0 = 2.0 + math.log(2) / 0.3
    levels = np.linspace(d0 + 0.1, 20.0, 25)
    curve = bound_theorem1(prof, levels)
    expect = _exp_or_inf(ln_C0_of(prof)) * np.exp(-prof.rho * levels / 2.0)
    np.testing.assert_allclose(curve.values, expect, rtol=1e-12)


def test_theorem1_quadratic_log_bound_for_constant_envelope():
    c = 0.05
    prof = synthetic_profile(rho=0.3, k_const=c)
    params = theorem1_params(prof)
    levels = np.linspace(params.d0 + 0.5, params.d0 + 10.0, 9)
    curve = bound_theorem1(prof, levels)
    coeffs = np.polyfit(levels, -np.log(curve.values), 2)
    assert coeffs[0] == pytest.approx(c / (4 * prof.s2), rel=1e-9)


@pytest.mark.filterwarnings("error")   # values past the float range: inf, no warning
def test_theorem1_with_rho_squared_below_rounding():
    # rho^2 / 4 = 2.5e-19: exp(-rho^2 / 4) rounds to 1 inside ln C0
    prof = synthetic_profile(rho=1e-9, k_const=0.0)
    d0 = paper_default_d0(prof)
    curve = bound_theorem1(prof, [2 * d0])
    assert curve.values[0] == math.inf
    numerator = 1.5 * (1e-9 + math.log(2) * 1e9) - 2.5e-19 + 1e-9 * d0 / 2
    assert ln_C0_of(prof) == pytest.approx(numerator - math.log(2.5e-19), abs=1e-6)
    assert _exp_or_inf(ln_C0_of(prof)) == math.inf


def test_theorem1_meta_C0_up_to_the_float_range():
    prof = synthetic_profile(rho=1.5e-3, k_const=0.0)
    ln_c0 = ln_C0_of(prof)
    assert 700 < ln_c0 < 709
    assert _exp_or_inf(ln_c0) == math.exp(ln_c0)


def test_theorem1_requires_attractive_point():
    # pure drift away from the origin: rho <= 0
    chain = biased_reflecting_walk(30, 2 / 3)
    prof = curvature_profile(chain, 1.0, origin=0)
    assert prof.rho <= 0
    with pytest.raises(NoAttractivePointError, match="no attractive point"):
        bound_theorem1(prof, [20.0])


def test_theorem1_rejects_levels_at_or_below_d0(prof_5_10):
    _, prof = prof_5_10
    params = theorem1_params(prof)
    with pytest.raises(ValueError):
        bound_theorem1(prof, [params.d0 - 0.5])


def test_theorem1_dominates_princ_path(prof_5_10):
    # the closed-form constants are upper bounds for the delegated route
    _, prof = prof_5_10
    params = theorem1_params(prof)
    levels = np.linspace(params.d0 + 0.01, 50.0, 60)
    t1 = bound_theorem1(prof, levels)
    delegated = bound_princ(prof, params, levels)
    assert np.all(delegated.values <= t1.values + 1e-12)


def test_bounds_strictly_decreasing(prof_5_10):
    _, prof = prof_5_10
    params = theorem1_params(prof)
    levels = np.linspace(params.d0 + 0.01, 50.0, 60)
    for curve in (bound_theorem1(prof, levels), bound_princ(prof, params, levels)):
        assert np.all(np.diff(curve.values) < 0)


def test_tail_curve_clamping(prof_5_10):
    _, prof = prof_5_10
    params = theorem1_params(prof)
    levels = np.linspace(params.d0 + 0.01, 50.0, 20)
    curve = bound_theorem1(prof, levels)
    assert np.any(curve.values > 1.0)
    assert np.max(curve.clamped()) <= 1.0
    assert np.max(curve.values) > 1.0  # raw values preserved


# -------------------------------------------------------------- search

def test_search_paper_default_zero_curvature():
    prof = synthetic_profile(rho=0.3, k_const=0.0)
    params = search_params(prof, "paper_default")
    assert params.admissible
    assert params.alpha == pytest.approx(0.5)
    assert params.d0 == pytest.approx(2.0 + math.log(2) / 0.3)


def test_search_grid_beats_default_at_reference(prof_5_10):
    _, prof = prof_5_10
    default = search_params(prof, "paper_default")
    ref = 2 * default.d0
    grid = search_params(prof, "grid", reference_level=ref)
    lv = [ref]
    v_grid = bound_princ(prof, grid, lv).values[0]
    v_def = bound_princ(prof, default, lv).values[0]
    assert v_grid <= v_def + 1e-12


def test_search_convexity_minimizes_prefactor(prof_5_10):
    _, prof = prof_5_10
    params = search_params(prof, "alpha_convexity")
    assert params.admissible
    # K(d0) = 0 there, so the prefactor optimum sits at alpha = 1/s^2
    assert params.alpha == pytest.approx(1.0, abs=1e-6)


def test_search_infeasible_fixed_d0_reports():
    # the convexity search fixes d0 at the paper default, 2 + ln(2) 20 / 5;
    # there F(d0) = 5 + ln(2) 20 / 5 = 7.77 falls short of s^2 K(d0) / 2 = 10
    prof = synthetic_profile(rho=5.0, s2=20.0, k_const=1.0)
    with pytest.raises(InfeasibleSearchError) as err:
        search_params(prof, "alpha_convexity")
    drift = err.value.report[0]["F_exceeds_half_s2K"]
    assert not drift["holds"] and drift["s2K_half"] == 10.0


def test_search_infeasible_paper_default_reports():
    # the paper default d0 = 2 + ln(2) 20 / 5 leaves the same drift too weak
    prof = synthetic_profile(rho=5.0, s2=20.0, k_const=1.0)
    with pytest.raises(InfeasibleSearchError) as err:
        search_params(prof, "paper_default")
    drift = err.value.report[0]["F_exceeds_half_s2K"]
    assert not drift["holds"] and drift["s2K_half"] == 10.0


def test_search_unknown_strategy_raises():
    with pytest.raises(ValueError, match="^unknown strategy 'fastest'$"):
        search_params(synthetic_profile(), "fastest")


def test_search_infeasible_grid_range_reports():
    # below the reference level 3 the drift is too weak: C >= 1 on every point
    chain = build_mmk_chain(25, 30, 160)
    prof = curvature_profile(chain, 1.0, chain.origin_hint)
    with pytest.raises(InfeasibleSearchError) as err:
        search_params(prof, "grid", reference_level=3.0)
    assert len(err.value.report) == 64
    assert not err.value.report[0]["C_below_one"]["holds"]


def test_search_grid_calls_admissibility_once_for_the_winner(prof_5_10, monkeypatch):
    _, prof = prof_5_10
    calls = []
    real = bounds_mod.admissibility

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds_mod, "admissibility", counted)
    params = search_params(prof, "grid", reference_level=30.0)
    assert params.admissible
    assert calls == [(params.alpha, params.d0)]


def test_search_grid_builds_the_d0_terms_in_one_call(prof_5_10, monkeypatch):
    # every d0 of the lattice lies below 200; the second call is the winner's
    # admissibility report
    _, prof = prof_5_10
    calls = []
    real = bounds_mod._at_d0

    def counted(profile, d0):
        calls.append(d0)
        return real(profile, d0)

    monkeypatch.setattr(bounds_mod, "_at_d0", counted)
    params = search_params(prof, "grid", reference_level=200.0)
    assert len(calls) == 2
    assert np.size(calls[0]) == bounds_mod.GRID_POINTS + 1 and calls[1] == params.d0


def test_search_grid_keeps_a_leading_nan_as_a_strict_scan_does(prof_5_10, monkeypatch):
    # `val < best` never replaces a nan that comes first, so a nan at the
    # first admissible point of the lattice wins over every later value
    _, prof = prof_5_10
    unpatched = search_params(prof, "grid", reference_level=200.0)
    real = bounds_mod._ln_bound
    first = []

    def leading_nan(profile, at, alpha, phi_l):
        vals = real(profile, at, alpha, phi_l)
        ok = np.logical_and.reduce(np.broadcast_arrays(*_conditions(profile, at, alpha)[0]))
        i, j = np.argwhere(ok)[0]
        vals[i, j] = math.nan
        first.append((float(alpha[i, j]), i))
        return vals

    monkeypatch.setattr(bounds_mod, "_ln_bound", leading_nan)
    params = search_params(prof, "grid", reference_level=200.0)
    eps2 = 2 * prof.epsilon
    d0s = np.linspace(eps2, eps2 + 10 * (prof.rho + prof.s2 / prof.rho), bounds_mod.GRID_POINTS)
    (alpha, i), = first
    assert (params.alpha, params.d0) == (alpha, d0s[i])
    assert (params.alpha, params.d0) != (unpatched.alpha, unpatched.d0)


def _outcome(search):
    """as_dict() of a successful search, or the message and report of a failed one."""
    try:
        return search().as_dict()
    except InfeasibleSearchError as exc:
        return ("infeasible", str(exc), exc.report)


@st.composite
def _step_profiles(draw):
    """A profile with a random non-increasing step envelope (possibly zero)
    and a reference level (None or above 2*eps)."""
    eps = draw(st.floats(0.2, 4.0))
    widths = draw(st.lists(st.floats(0.05, 6.0), max_size=5))
    values = sorted(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0),
                                  min_size=len(widths) + 1,
                                  max_size=len(widths) + 1)), reverse=True)
    rho = draw(st.floats(1e-3, 0.05) | st.floats(0.05, 5.0))
    prof = CurvatureProfile(
        epsilon=eps, origin=0, kappa_local=np.array(values[:1]),
        envelope=StepFunction(np.concatenate([[0.0], np.cumsum(widths)]), values),
        rho=rho, j0=draw(st.floats(0.0, 5.0)), s2=draw(st.floats(0.05, 10.0)))
    ref = draw(st.none() | st.floats(2 * eps, 2 * eps + 3.0, exclude_min=True)
               | st.floats(2 * eps, 1e300, exclude_min=True))
    return prof, ref


@settings(max_examples=40, deadline=None)
@given(case=_step_profiles())
@example(case=(synthetic_profile(rho=0.3, k_const=0.1, k_until=6.0), None))
@example(case=(synthetic_profile(rho=0.7, s2=4.0, k_const=0.5), 2.5))
@example(case=(synthetic_profile(rho=0.3, k_const=0.1), 1e300))
@example(case=(synthetic_profile(rho=0.03125, s2=0.5, k_const=5e-324), None))
@example(case=(synthetic_profile(rho=5.0, s2=20.0, k_const=1.0), None))
@example(case=(synthetic_profile(rho=1e-200), None))
def test_searches_match_the_scalar_oracle(case):
    # the hoisted searches keep every bit of the per-point scalar loop:
    # the same winner, or the same failure reports in the same order; on the
    # fourth example s^2 K(d0) underflows to 0, where the loop divided by
    # zero; on the fifth the convexity search ends inadmissible, and on the
    # last F(d0)^2 underflows, so no alpha makes C < 1
    prof, ref = case
    assert _outcome(lambda: search_params(prof, "grid", reference_level=ref)) == \
        _outcome(lambda: search_oracle.grid_search(prof, reference_level=ref))
    assert _outcome(lambda: search_params(prof, "alpha_convexity")) == \
        _outcome(lambda: search_oracle.convexity_search(prof))


def test_search_oracle_examples_cover_infeasible_and_tied_lattices():
    # the second example above fails on the lattice: at d0 = 2 the drift
    # F(d0) = 0.7 lies between K(d0) = 0.5 and s^2 K(d0) / 2 = 1, so all 32
    # points there fail the drift condition, and every other d0 lies beyond
    # the reference level; on the third, phi(reference level) overflows, so
    # every admissible point ties at -inf and the first one must win
    weak = synthetic_profile(rho=0.7, s2=4.0, k_const=0.5)
    with pytest.raises(InfeasibleSearchError) as err:
        search_params(weak, "grid", reference_level=2.5)
    beyond = [r for r in err.value.report if "reason" in r]
    assert len(err.value.report) == 64 and len(beyond) == 32
    drift = err.value.report[0]["F_exceeds_half_s2K"]
    assert not drift["holds"] and drift["F_d0"] == 0.7
    tied = synthetic_profile(rho=0.3, k_const=0.1)
    assert phi_of(tied, 1e300) == math.inf
    params = search_params(tied, "grid", reference_level=1e300)
    assert (params.alpha, params.d0) == (2.0 / 1000.0, 2.0)


def _bits(x):
    """The bits of x, with one nan: where two nans meet, the sign of the
    result follows operand order, which the compiler may swap."""
    return np.where(np.isnan(x), math.nan, x).view(np.int64)


_SPECIALS = [math.inf, -math.inf, math.nan]


@settings(max_examples=40, deadline=None)
@given(case=_step_profiles(), d0s=st.lists(st.floats(0.0, 60.0), max_size=6),
       alphas=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
def test_lattice_helpers_match_their_scalar_calls(case, d0s, alphas):
    # one call on a (d0, alpha) lattice keeps every bit of the per-point calls,
    # where C is undefined (alpha s^2 K(d0) >= 1) and at inf and nan entries too
    prof, ref = case
    phi_l = phi_of(prof, 2 * prof.epsilon + 1.0 if ref is None else ref)
    d0 = np.array(d0s + [prof.epsilon, 2 * prof.epsilon] + _SPECIALS)
    alpha = np.array(alphas + _SPECIALS) / prof.s2
    at = _at_d0(prof, d0[:, None])
    ats = [_at_d0(prof, float(d)) for d in d0]
    for field, column in zip(at, zip(*ats)):
        assert _bits(field).ravel().tolist() == _bits(column).tolist()

    conds, ln_c = _conditions(prof, at, alpha)
    prefactor = _ln_prefactor(prof, at, alpha)
    ln_bound = _ln_bound(prof, at, alpha, phi_l)
    defined = np.broadcast_to(conds[2], ln_c.shape)
    assert not defined.all()  # the nan alpha
    with pytest.raises(InadmissibleParamsError):
        _ln_C(prof, at, alpha)
    at_defined = bounds_mod._AtD0(*(np.broadcast_to(f, ln_c.shape)[defined] for f in at))
    ln_c_defined = _ln_C(prof, at_defined, np.broadcast_to(alpha, ln_c.shape)[defined])
    assert _bits(ln_c_defined).tolist() == _bits(ln_c[defined]).tolist()
    for (i, j), c_ij in np.ndenumerate(ln_c):
        a = float(alpha[j])
        conds_ij, ln_c_ij = _conditions(prof, ats[i], a)
        assert [bool(c) for c in conds_ij] == \
            [bool(np.broadcast_to(c, ln_c.shape)[i, j]) for c in conds]
        assert _bits(ln_c_ij) == _bits(c_ij)
        if defined[i, j]:
            assert _bits(_ln_C(prof, ats[i], a)) == _bits(c_ij)
        else:
            with pytest.raises(InadmissibleParamsError):
                _ln_C(prof, ats[i], a)
        assert _bits(_ln_prefactor(prof, ats[i], a)) == _bits(prefactor[i, j])
        assert _bits(_ln_bound(prof, ats[i], a, phi_l)) == _bits(ln_bound[i, j])


def test_ln_C_convex_in_alpha(prof_5_10):
    _, prof = prof_5_10
    for d0 in (2.5, 3.5, 6.0):
        kd0 = float(prof.envelope(d0))
        upper = min(2.0 / prof.s2, 0.98 / (prof.s2 * kd0)) if kd0 > 0 else 2.0
        grid = np.linspace(upper / 64, upper, 64)
        vals = np.array([ln_C(prof, a, d0) for a in grid])
        assert np.all(np.diff(vals, 2) >= -1e-9)


# --------------------------------------------------------------- sweep

def _argmin_epsilon(rows):
    """The eps of the first row with the least finite bound, as `sweep` picks it."""
    usable = [r for r in rows if math.isfinite(r[6])]
    return min(usable, key=lambda r: r[6])[0] if usable else None


def test_sweep_single_epsilon_matches_direct(prof_5_10):
    chain, prof = prof_5_10
    ref = 30.0
    direct = search_params(prof, "grid", reference_level=ref)
    rows = epsilon_sweep(chain, 5, [1.0], ref, strategy="grid")
    row = rows[0]
    assert _argmin_epsilon(rows) == 1.0
    assert row[1] == pytest.approx(prof.rho, abs=1e-12)
    assert row[4] == pytest.approx(direct.alpha, rel=1e-12)
    assert row[5] == pytest.approx(direct.d0, rel=1e-12)
    direct_val = bound_princ(prof, direct, [ref]).values[0]
    assert row[6] == pytest.approx(direct_val, rel=1e-9)


def test_sweep_skips_non_geodesic_eps(mmk_2_4):
    rows = epsilon_sweep(mmk_2_4, 2, [0.5, 1.0], 20.0, strategy="paper_default")
    assert rows[0][7] == "not eps-geodesic"
    assert rows[1][7] == ""
    assert _argmin_epsilon(rows) == 1.0


@pytest.mark.parametrize("strategy", ["paper_default", "grid", "alpha_convexity"])
def test_sweep_row_with_rho_at_most_zero_carries_the_search_message(strategy):
    # drift away from the origin: the row keeps rho and the envelope summary,
    # and its note is the message search_params raises
    chain = biased_reflecting_walk(30, 2 / 3)
    prof = curvature_profile(chain, 1.0, origin=0)
    with pytest.raises(NoAttractivePointError) as err:
        search_params(prof, strategy, reference_level=20.0)
    (row,) = epsilon_sweep(chain, 0, [1.0], 20.0, strategy=strategy)
    assert row[1] == prof.rho <= 0
    assert row[2] == float(prof.envelope.values.max())
    assert math.isnan(row[4]) and math.isnan(row[5]) and row[6] == math.inf
    assert row[7] == str(err.value) and "no attractive point" in row[7]


def test_sweep_optimal_eps_scales_like_sqrt_n0():
    # regime with k - n0 at the sqrt(n0) scale: best eps tracks sqrt(n0)
    for n0, k, trunc, ref in ((25, 30, 160, 45), (100, 110, 220, 60)):
        chain = build_mmk_chain(n0, k, trunc)
        best = _argmin_epsilon(epsilon_sweep(
            chain, n0, range(1, int(3 * math.sqrt(n0)) + 1), ref, strategy="grid"))
        assert best is not None
        ratio = best / math.sqrt(n0)
        assert 1 / 3 <= ratio <= 3.0


def test_sweep_optimal_eps_scales_like_gap_when_narrow():
    chain = build_mmk_chain(25, 27, 260)
    best = _argmin_epsilon(epsilon_sweep(chain, 25, range(1, 16), 45.0, strategy="grid"))
    gap = 27 - 25
    assert best is not None
    assert gap / 3 <= best <= 3 * gap


# -------------------------------------------------- dominance (module level)

def test_bounds_dominate_exact_tail(prof_5_10):
    chain, prof = prof_5_10
    pi = stationary_birth_death(chain)
    params = theorem1_params(prof)
    levels = np.linspace(params.d0 + 0.01, 50.0, 80)
    tail = empirical_tail(pi.distribution, chain, 5, levels)
    for curve in (bound_theorem1(prof, levels), bound_princ(prof, params, levels)):
        assert np.all(curve.values + 1e-12 >= tail.values)
