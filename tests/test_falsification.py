"""Every bound the library returns dominates an exact law on generated chains.

The chains are birth-death chains on 8 to 60 unit-spaced states, whose
stationary law `equilibrium.birth_death_law` gives exactly by detailed
balance, in four rate families: random rates; nonnegative curvature by
construction (up rates non-increasing, down rates non-decreasing, every up
rate under every down rate); M/M/k rates with one rate changed; and inward
drift up to a random state with outward drift past it, where K_eps turns
negative.  eps is one of the three smallest distances and the origin is
state 0 or the mode.

For every strategy, each curve that `bound` and `verify` write (the
general bound at the searched (alpha, d0), and the fixed-parameter bound
past the paper-default d0) and each finite `sweep` value must be at least
exact * (1 - DOMINANCE_TOL), or the call must raise an InapplicableError
that says why.  A bound decreases in l and the exact tail is constant
between integers, so the integer levels are the hardest ones.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricci_bounds.bounds import (LEVEL_TOL, bound_princ, bound_theorem1, epsilon_sweep,
                                 paper_default_d0, search_params)
from ricci_bounds.chain_model import mmk_rates
from ricci_bounds.cli import DOMINANCE_TOL
from ricci_bounds.curvature import curvature_profile
from ricci_bounds.equilibrium import birth_death_law, empirical_tail
from ricci_bounds.errors import InapplicableError

from conftest import birth_death_chain

STRATEGIES = ("paper_default", "grid", "alpha_convexity")


def _random(rng, n):
    return rng.uniform(0.02, 0.5, n - 1), rng.uniform(0.02, 0.5, n - 1)


def _nonnegative(rng, n):
    # kappa(x, y) = (delta(x) - delta(y)) / d(x, y) >= 0 for the drift
    # delta = up - down, which does not increase along the line
    split = rng.uniform(0.1, 0.3)
    return (np.sort(rng.uniform(0.02, split, n - 1))[::-1],
            np.sort(rng.uniform(split, 0.5, n - 1)))


def _mmk_one_change(rng, n):
    k = int(rng.integers(2, n))
    up, _, down = mmk_rates(int(rng.integers(1, k)), k, n - 1)
    rates = np.concatenate([up, down])
    # state i moves up with up[i] and down with down[i - 1]: the other move of
    # each rate's state, which the changed rate must leave room for
    other = np.concatenate([np.insert(down, 0, 0.0)[:-1], np.append(up, 0.0)[1:]])
    j = int(rng.integers(rates.size))
    rates[j] = min(rates[j] * rng.uniform(0.25, 1.75), 1.0 - other[j])
    return rates[:n - 1], rates[n - 1:]


def _reversal(rng, n):
    # inward drift (a small up rate, a large down rate) before the turn,
    # outward drift (a large up rate, a small down rate) from it on
    turn = int(rng.integers(1, n - 1))
    large, small = rng.uniform(0.3, 0.5, 2), rng.uniform(0.02, 0.2, 2)
    state = np.arange(n - 1)
    return (np.where(state < turn, small[0], large[0]),
            np.where(state + 1 < turn, large[1], small[1]))


FAMILIES = {"random": _random, "nonnegative": _nonnegative,
            "mmk_one_change": _mmk_one_change, "reversal": _reversal}


@st.composite
def cases(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(8, 60))
    up, down = FAMILIES[family](np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    origin = draw(st.sampled_from(["zero", "mode"]))
    return up, down, origin, draw(st.sampled_from([1.0, 2.0, 3.0]))


def _curves(profile, strategy, radius):
    """The curves `bound` writes, at every integer level from d0 to the radius."""
    params = search_params(profile, strategy=strategy)
    levels = np.arange(math.ceil(params.d0 - LEVEL_TOL), radius + 1.0)
    levels = levels[levels >= params.d0 - LEVEL_TOL]
    if not levels.size:
        return []
    curves = [bound_princ(profile, params, levels)]
    far = levels[levels > paper_default_d0(profile)]
    if far.size:
        curves.append(bound_theorem1(profile, far))
    return curves


def _dominates(values, exact):
    return values >= exact * (1.0 - DOMINANCE_TOL)


# the counterexample that exited 0 with a bound of 9.8e-10 against an exact 0.80
@example(case=(np.where(np.arange(39) < 4, 0.1, 0.5), np.where(np.arange(1, 40) < 4, 0.5, 0.1),
               "zero", 1.0))
@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_every_returned_bound_dominates_the_exact_tail(case):
    up, down, where, eps = case
    chain = birth_death_chain(up, down)
    pi = birth_death_law(up, down)
    origin = 0 if where == "zero" else int(np.argmax(pi))
    radius = float(chain.dist[origin].max())
    try:
        profile = curvature_profile(chain, eps, origin)
    except InapplicableError as exc:
        assert str(exc)
        return
    for strategy in STRATEGIES:
        try:
            curves = _curves(profile, strategy, radius)
        except InapplicableError as exc:
            assert str(exc)
            continue
        for curve in curves:
            exact = empirical_tail(pi, chain, origin, curve.levels).values
            ok = _dominates(curve.values, exact)
            assert ok.all(), (strategy, curve.kind, curve.levels[~ok],
                              curve.values[~ok], exact[~ok])
        reference = math.ceil(radius / 2.0)
        exact = empirical_tail(pi, chain, origin, [reference]).values[0]
        for row in epsilon_sweep(chain, origin, [1.0, 2.0, 3.0], reference, strategy):
            assert math.isinf(row[6]) or _dominates(row[6], exact), (strategy, row)
