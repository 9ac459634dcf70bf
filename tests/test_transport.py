import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.optimize
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance as scipy_w1

from ricci_bounds import MetricChain, build_mmk_chain, w1_flow, w1_flow_batch, w1_line
from ricci_bounds import transport
from ricci_bounds.errors import ChainValidationError, TransportError

from conftest import (cube_chain, irregular_line_chain, line_chain, random_graph_chain,
                      rows_chain)
from reference_oracles import stochastic_dominance_check, w1_rows_lp


def measure(n, support, weights):
    """The weight vector over n points with the given weights on `support`."""
    vec = np.zeros(n)
    vec[np.asarray(support)] = weights
    return vec


def random_line_instance(rng, n_points=60, max_support=50):
    coords = np.sort(rng.uniform(-20, 20, size=n_points))
    chain = line_chain(coords, np.eye(n_points))

    def rand_measure():
        size = rng.integers(1, max_support + 1)
        support = rng.choice(n_points, size=size, replace=False)
        weights = rng.random(size)
        return measure(n_points, support, weights / weights.sum())

    return chain, rand_measure


def flow(chain, mu, nu):
    """Certified W1 between two weight vectors on `chain`, as kernel rows 0 and 1."""
    return w1_flow(rows_chain(chain, [mu, nu]), 0, 1)


def record_lps(monkeypatch):
    """A list that gets (cost, A_eq, b_eq, result) of every transport LP solved."""
    real = scipy.optimize.linprog
    solved = []

    def keep(cost, **kwargs):
        solved.append((cost, kwargs["A_eq"], kwargs["b_eq"], real(cost, **kwargs)))
        return solved[-1][-1]

    monkeypatch.setattr(scipy.optimize, "linprog", keep)
    return solved


def signed_entries(chain, xs, ys):
    """The number of LP rows that solving each pair exactly once would pass."""
    return int(np.count_nonzero(chain.kernel[xs] != chain.kernel[ys]))


# ------------------------------------------------------------ frozen values

def test_point_masses_distance(mmk_2_4):
    mu = measure(mmk_2_4.n, [0], [1.0])
    nu = measure(mmk_2_4.n, [3], [1.0])
    assert w1_line(mu, nu, mmk_2_4.coords) == pytest.approx(3.0, abs=1e-12)
    assert flow(mmk_2_4, mu, nu) == pytest.approx(3.0, abs=1e-12)


def test_split_mass_vs_center(mmk_2_4):
    # brute force over the only coupling: both half-atoms move distance 1
    mu = measure(mmk_2_4.n, [0, 2], [0.5, 0.5])
    nu = measure(mmk_2_4.n, [1], [1.0])
    assert w1_line(mu, nu, mmk_2_4.coords) == pytest.approx(1.0, abs=1e-12)
    assert flow(mmk_2_4, mu, nu) == pytest.approx(1.0, abs=1e-12)


def test_identical_measures_zero(mmk_2_4):
    mu = measure(mmk_2_4.n, [1, 4, 7], [0.2, 0.5, 0.3])
    assert w1_line(mu, mu, mmk_2_4.coords) == 0.0
    assert flow(mmk_2_4, mu, mu) == 0.0
    assert w1_flow(rows_chain(mmk_2_4, [mu]), 0, 0) == 0.0


def test_uniform_pairs_brute_force(mmk_2_4):
    # optimum couples 0->2 and 1->3 (any coupling costs exactly 2 here)
    mu = measure(mmk_2_4.n, [0, 1], [0.5, 0.5])
    nu = measure(mmk_2_4.n, [2, 3], [0.5, 0.5])
    assert flow(mmk_2_4, mu, nu) == pytest.approx(2.0, abs=1e-12)


def test_mmk_kernel_rows_w1(mmk_2_4):
    assert w1_flow(mmk_2_4, 3, 4) == pytest.approx(5 / 6, abs=1e-12)


# ------------------------------------------------------- route cross-checks

def test_line_vs_flow_vs_scipy():
    rng = np.random.default_rng(11)
    chain, rand_measure = random_line_instance(rng)
    for _ in range(40):
        mu, nu = rand_measure(), rand_measure()
        line = w1_line(mu, nu, chain.coords)
        ref = scipy_w1(chain.coords, chain.coords, mu, nu)
        assert abs(line - flow(chain, mu, nu)) <= 1e-9
        assert line == pytest.approx(ref, abs=1e-9)


def test_duality_certificate_fields(monkeypatch):
    rng = np.random.default_rng(3)
    chain, rand_measure = random_line_instance(rng)
    mu, nu = rand_measure(), rand_measure()
    pair = rows_chain(chain, [mu, nu])
    solved = record_lps(monkeypatch)
    (value,), (gap,), (lip,) = w1_flow_batch(pair, [0], [1])
    assert gap <= 1e-9
    assert lip <= 1e-9
    # the plan on the columns the final solve was given, plus the shared mass
    # left in place, is a feasible coupling of mu and nu; each column is the
    # arc between its two LP rows, the sources first and then the sinks
    _, a_eq, _, res = solved[-1]
    src, snk = np.flatnonzero(mu > nu), np.flatnonzero(mu < nu)
    arcs = a_eq.indices.reshape(-1, 2)
    plan = np.diag(np.minimum(mu, nu))
    np.add.at(plan, (src[arcs[:, 0]], snk[arcs[:, 1] - src.size]), res.x)
    np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-9)
    np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-9)
    # and the c-transform of the sink duals, a 1-Lipschitz potential on every
    # point, attains the value
    potential = np.min(chain.dist[:, snk] - res.eqlin.marginals[src.size:], axis=1)
    assert potential @ (mu - nu) == pytest.approx(value, abs=1e-9)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(17)
    chain, rand_measure = random_line_instance(rng, max_support=20)
    for _ in range(20):
        abc = rows_chain(chain, [rand_measure(), rand_measure(), rand_measure()])
        ab = w1_flow(abc, 0, 1)
        bc = w1_flow(abc, 1, 2)
        ac = w1_flow(abc, 0, 2)
        assert ac <= ab + bc + 1e-9


def test_flow_on_nonline_metric():
    # a 4-cycle metric (no line embedding): flow still certifies
    dist = np.array([[0, 1, 2, 1],
                     [1, 0, 1, 2],
                     [2, 1, 0, 1],
                     [1, 2, 1, 0]], dtype=float)
    chain = MetricChain(points=("a", "b", "c", "d"), dist=dist,
                        kernel=np.full((4, 4), 0.25))
    mu = measure(4, [0], [1.0])
    nu = measure(4, [1, 3], [0.5, 0.5])
    assert flow(chain, mu, nu) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), line=st.booleans())
def test_batch_matches_independent_oracles(seed, line):
    # every pair of rows at once: on a line against the CDF sum, elsewhere
    # against the LP that moves the whole rows instead of their difference
    rng = np.random.default_rng(seed)
    chain = irregular_line_chain(rng) if line else random_graph_chain(rng)
    xs, ys = np.nonzero(np.triu(~np.eye(chain.n, dtype=bool)))
    w1, gap, lip = w1_flow_batch(chain, xs, ys)
    for x, y, value in zip(xs, ys, w1):
        if line:
            ref = w1_line(chain.kernel[x], chain.kernel[y], chain.coords)
            assert value == pytest.approx(ref, abs=1e-12)
        else:
            assert value == pytest.approx(w1_rows_lp(chain, x, y), abs=1e-9)
    assert np.all(gap <= transport.CERT_TOL) and np.all(lip <= transport.CERT_TOL)


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("bits", [3, 4, 5, 6])
def test_cube_neighbours_have_curvature_one_over_n(monkeypatch, bits, p):
    chain = cube_chain(bits, p)
    xs, ys = np.nonzero(np.triu(chain.dist == 1.0))
    solved = record_lps(monkeypatch)
    kappa = 1.0 - w1_flow_batch(chain, xs, ys)[0]
    np.testing.assert_allclose(kappa, 1 / bits, rtol=0, atol=transport.CERT_TOL)
    # the optimal coupling moves x -> y and x+e_i -> y+e_i, all
    # nearest-neighbour arcs, so every pair certifies in the first pass and
    # no difference's rows are solved twice
    assert sum(b_eq.size for _, _, b_eq, _ in solved) == signed_entries(chain, xs, ys)


@pytest.mark.parametrize("p", [0.2, 0.37])
def test_cube_first_pass_is_the_matching_of_each_pair(monkeypatch, p):
    # P_x - P_y of neighbours on {0,1}^6 has 6 sources, each 1 from its
    # matched sink and of equal share up to rounding: the nearest-neighbour
    # arcs are that matching, and the staircase adds no arc across the
    # slivers where matched shares differ in their last bits
    chain = cube_chain(6, p)
    xs, ys = np.nonzero(np.triu(chain.dist == 1.0))
    solved = record_lps(monkeypatch)
    w1_flow_batch(chain, xs, ys)
    assert [cost.size for cost, *_ in solved] == [6 * xs.size] == [1152]


def crossing_union(base, p, q):
    """`base` plus four points a, b, c, e, listed in that order, whose rows a
    and b differ by sources a, b (masses p, 1 - p) and sinks c, e (masses q,
    1 - q), with q < p.  Returns the chain and the indices of a and b.

    d(a, e) = 1, d(b, e) = 3, d(a, c) = 4, d(b, c) = 5, d(a, b) = 2 and
    d(c, e) = 3, and every new point is max(base diameter, 5) from every old
    one, which keeps a metric.  e is the nearest sink of both sources and a
    the nearest source of both sinks, and since q < p the staircase turns
    right at (a, c): the first pass has every arc but b -> c.  Its only plan
    sends q to c from a, so it costs min(1 - p, q) more than the optimum,
    which moves that much over b -> c and a -> e instead of a -> c and b -> e.
    """
    far = max(base.dist.max(), 5.0)
    n = base.n
    dist = np.full((n + 4, n + 4), far)
    dist[:n, :n] = base.dist
    dist[n:, n:] = [[0, 2, 4, 1], [2, 0, 5, 3], [4, 5, 0, 3], [1, 3, 3, 0]]
    kernel = np.eye(n + 4)
    kernel[:n, :n] = base.kernel
    kernel[n] = 0.0
    kernel[n, [n, n + 1]] = p, 1 - p
    kernel[n + 1] = 0.0
    kernel[n + 1, [n + 2, n + 3]] = q, 1 - q
    chain = MetricChain(points=base.points + ("a", "b", "c", "e"), dist=dist, kernel=kernel)
    return chain, n, n + 1


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.55, 0.95), q=st.floats(0.05, 0.45))
def test_second_pass_matches_the_whole_row_lp(seed, p, q):
    # one LP per pass: a second call proves that the second pass ran, and its
    # rows show which pairs it solved again
    chain, a, b = crossing_union(random_graph_chain(np.random.default_rng(seed)), p, q)
    xs, ys = np.nonzero(np.triu(~np.eye(chain.n, dtype=bool)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "LP_GROUP_VARS", 10**9)
        solved = record_lps(patch)
        w1, gap, lip = w1_flow_batch(chain, xs, ys)
    assert len(solved) == 2
    assert sum(b_eq.size for _, _, b_eq, _ in solved) > signed_entries(chain, xs, ys)
    for x, y, value in zip(xs, ys, w1):
        assert value == pytest.approx(w1_rows_lp(chain, x, y), abs=1e-9)
    assert np.all(gap <= transport.CERT_TOL) and np.all(lip <= transport.CERT_TOL)
    # the crossing pair alone: its first pass leaves min(1 - p, q) on the table
    with pytest.MonkeyPatch.context() as patch:
        solved = record_lps(patch)
        assert w1_flow(chain, a, b) == pytest.approx(w1_rows_lp(chain, a, b), abs=1e-9)
    first, full = (res.fun for *_, res in solved)
    assert [cost.size for cost, *_ in solved] == [3, 4]
    assert first - full == pytest.approx(min(1 - p, q), abs=1e-9)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.55, 0.95), q=st.floats(0.05, 0.45),
       group=st.integers(1, 80))
def test_each_group_is_one_lp_and_its_rejected_pairs_one_more(seed, p, q, group):
    # small groups cut by the running count of full columns: each is solved
    # once on its sparse columns and, when the certificate rejects any of its
    # pairs (the crossing pair always), once more on all of theirs
    chain, _, _ = crossing_union(random_graph_chain(np.random.default_rng(seed)), p, q)
    xs, ys = np.nonzero(np.triu(~np.eye(chain.n, dtype=bool)))
    diff = chain.kernel[xs] - chain.kernel[ys]
    n_var = np.count_nonzero(diff > 0, axis=1) * np.count_nonzero(diff < 0, axis=1)
    groups = np.unique(np.cumsum(n_var[n_var > 0]) // group).size
    real = transport._certified
    verdicts = []

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "LP_GROUP_VARS", group)
        patch.setattr(transport, "_certified", spy)
        solved = record_lps(patch)
        w1 = w1_flow_batch(chain, xs, ys)[0]
    first_pass = verdicts[:-1]                  # the last judges the final results
    rejected = sum(not verdict.all() for verdict in first_pass)
    assert len(first_pass) == groups and rejected >= 1
    assert len(solved) == groups + rejected
    for x, y, value in zip(xs, ys, w1):
        assert value == pytest.approx(w1_rows_lp(chain, x, y), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(st.tuples(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=7),
                                 st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=7)),
                       min_size=1, max_size=4))
def test_staircase_carries_a_plan(blocks):
    # the blocks side by side, each one's supplies followed by its demands,
    # which are scaled to the supplies' sum, so the two sums differ by
    # rounding; the arcs whose share intervals overlap by more than
    # ROW_SUM_TOL, the first pass's staircase columns, carry a plan on their own
    sides = [np.array(side) for supply, demand in blocks
             for side in (supply, np.array(demand) * (sum(supply) / sum(demand)))]
    count = np.array([side.size for side in sides])
    first = np.cumsum(count) - count
    weight = np.concatenate(sides)
    lo, hi = transport._shares(weight, first, count)
    for k in range(0, len(count), 2):
        src = first[k] + np.arange(count[k])
        snk = first[k + 1] + np.arange(count[k + 1])
        s, t = np.meshgrid(src, snk, indexing="ij")
        arcs = np.argwhere(np.minimum(hi[s], hi[t]) - np.maximum(lo[s], lo[t])
                           > transport.ROW_SUM_TOL)
        assert len(arcs) <= src.size + snk.size - 1
        a_eq = np.zeros((src.size + snk.size, len(arcs)))
        a_eq[arcs[:, 0], np.arange(len(arcs))] = 1.0
        a_eq[src.size + arcs[:, 1], np.arange(len(arcs))] = 1.0
        b_eq = weight[np.concatenate([src, snk])]
        res = linprog(np.zeros(len(arcs)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        assert res.status == 0, res.message
        assert np.abs(a_eq @ res.x - b_eq).max() <= 1e-9


# ------------------------------------------------------------ batched LP

def random_pairs(rng, n_points, count, max_support=6):
    def rand_measure():
        support = rng.choice(n_points, size=rng.integers(1, max_support + 1),
                             replace=False)
        weights = rng.random(support.size) + 0.05
        return measure(n_points, support, weights / weights.sum())
    return [(rand_measure(), rand_measure()) for _ in range(count)]


def test_batch_matches_per_pair_solves():
    rng = np.random.default_rng(5)
    base = random_graph_chain(rng)
    pairs = random_pairs(rng, base.n, 12)
    pairs.insert(4, (pairs[0][0], pairs[0][0]))        # identical measures
    sizes = {(np.count_nonzero(mu), np.count_nonzero(nu)) for mu, nu in pairs}
    assert len(sizes) > 3                               # ragged blocks
    chain = rows_chain(base, [vec for pair in pairs for vec in pair])
    xs, ys = np.arange(0, 2 * len(pairs), 2), np.arange(1, 2 * len(pairs), 2)
    w1, gap, lip = w1_flow_batch(chain, xs, ys)
    assert len(w1) == len(gap) == len(lip) == len(pairs)
    assert w1[4] == 0.0
    for x, y, value, g, l in zip(xs, ys, w1, gap, lip):
        single = w1_flow_batch(chain, [x], [y])
        assert value == pytest.approx(single[0][0], abs=1e-12)
        assert g <= transport.CERT_TOL
        assert 0.0 <= l <= transport.CERT_TOL


def test_batch_of_nothing_solves_nothing(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("no LP expected")
    monkeypatch.setattr(scipy.optimize, "linprog", no_solve)
    chain = random_graph_chain(np.random.default_rng(1))
    mu = measure(chain.n, [0, 2], [0.5, 0.5])
    assert [a.size for a in w1_flow_batch(chain, [], [])] == [0, 0, 0]
    assert w1_flow_batch(rows_chain(chain, [mu, mu]), [0], [1])[0][0] == 0.0
    kernel = chain.kernel.copy()
    kernel[5] = kernel[3]
    twins = MetricChain(points=chain.points, dist=chain.dist, kernel=kernel)
    w1, gap, lip = w1_flow_batch(twins, [3, 5, 7], [5, 3, 7])
    assert w1.tolist() == gap.tolist() == lip.tolist() == [0.0, 0.0, 0.0]


def test_lp_columns_are_the_signed_differences(monkeypatch):
    # on {0,1}^6 each kernel row has 7 points, and the difference of two
    # neighbouring rows moves 6 sources onto 6 sinks: 36 signed columns, not
    # the 49 of the full rows.  The first pass needs fewer still, and every
    # pair certifies there, so each difference's rows are solved once.
    chain = cube_chain(6, 0.2)
    xs, ys = np.nonzero(np.triu(chain.dist == 1.0))
    solved = record_lps(monkeypatch)
    w1_flow_batch(chain, xs, ys)
    diff = chain.kernel[xs] - chain.kernel[ys]
    signed = np.count_nonzero(diff > 0, axis=1) * np.count_nonzero(diff < 0, axis=1)
    full = np.count_nonzero(chain.kernel[xs], axis=1) * np.count_nonzero(chain.kernel[ys], axis=1)
    assert np.all(signed == 36) and np.all(signed < full)
    assert sum(cost.size for cost, *_ in solved) < signed.sum()
    assert sum(b_eq.size for _, _, b_eq, _ in solved) == signed_entries(chain, xs, ys)


def test_skinny_pair_certifies_in_two_square_arrays():
    # a point mass against 2000 equal atoms: the block has s = 2001 points,
    # and certifying it holds at most two s x s float64 arrays at once (the
    # c-transform's sum and the distance gather), not three
    n = 2001
    chain = line_chain(np.arange(n, dtype=float), np.eye(n))
    chain = rows_chain(chain, [measure(n, [0], [1.0]),
                               measure(n, np.arange(1, n), np.full(n - 1, 1 / (n - 1)))])
    w1_flow_batch(chain, [0], [1])                     # warm the import caches
    tracemalloc.start()
    try:
        (value,), _, _ = w1_flow_batch(chain, [0], [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1000.5, abs=1e-9)
    assert peak <= 2.5 * 8 * n * n


def test_a_batch_converts_only_the_rows_it_reads():
    # rows 1..2000 of a 2001-state chain share one dense 2000 x 2000 block:
    # W1 between rows 0 and 1 reads two rows, so it peaks as it does when
    # every other row is a point mass
    n = 2001
    line = line_chain(np.arange(n, dtype=float), np.eye(n))
    point, spread = measure(n, [0], [1.0]), measure(n, np.arange(1, n), np.full(n - 1, 1 / (n - 1)))
    peaks = []
    for rows in ([point, spread], [point] + [spread] * (n - 1)):
        chain = rows_chain(line, rows)
        w1_flow_batch(chain, [0], [1])                 # warm the import caches
        tracemalloc.start()
        try:
            w1_flow_batch(chain, [0], [1])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del chain
    assert peaks[1] <= 1.05 * peaks[0]


def four_cycle_pairs():
    """The 4-cycle a-b-c-d as rows 0-5 and three row pairs with W1 = 1, 1 and
    1.5, whose signed differences have two LP variables each."""
    dist = np.array([[0, 1, 2, 1],
                     [1, 0, 1, 2],
                     [2, 1, 0, 1],
                     [1, 2, 1, 0]], dtype=float)
    chain = MetricChain(points=("a", "b", "c", "d"), dist=dist,
                        kernel=np.full((4, 4), 0.25))
    rows = [measure(4, [0], [1.0]), measure(4, [1, 3], [0.5, 0.5]),
            measure(4, [1], [1.0]), measure(4, [0, 2], [0.5, 0.5]),
            measure(4, [1, 2], [0.5, 0.5]), measure(4, [3], [1.0])]
    return rows_chain(chain, rows), [0, 2, 4], [1, 3, 5]


def test_batch_certificate_names_the_corrupted_pair(monkeypatch):
    # a 4-cycle: pair 1 moves b's mass half to a and half to c (W1 = 1);
    # shifting the dual of its sink a by 5 leaves a potential with
    # phi(b) = phi(a) + 1 = phi(c) - 1, so its dual value drops to 0 while its
    # neighbours stay exact.  The shift is made in both solves of pair 1: the
    # batch (block 0 holds rows 0-2, block 1's source b is row 3) and the
    # second pass, which solves pair 1 alone.
    chain, xs, ys = four_cycle_pairs()
    assert w1_flow_batch(chain, xs, ys)[0] == pytest.approx([1.0, 1.0, 1.5])
    sink_a = [4, 1]
    real = scipy.optimize.linprog
    calls = []

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.eqlin.marginals[sink_a[len(calls)]] += 5.0
        calls.append(res.x.size)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", corrupted)
    with pytest.raises(TransportError, match=r"^pair 1: duality certificate failed"):
        w1_flow_batch(chain, xs, ys)
    assert calls == [6, 2]


def test_split_batch_names_the_pair_by_its_index_in_the_call(monkeypatch):
    # 1-column groups give every pair its own LP; a zeroed primal in the
    # third LP and in the second pass's re-solve of its pair must be reported
    # as pair 2, its index in the caller's list
    chain, xs, ys = four_cycle_pairs()
    monkeypatch.setattr(transport, "LP_GROUP_VARS", 1)
    real = scipy.optimize.linprog
    calls = []

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res.x.size)
        if len(calls) >= 3:
            res.x = np.zeros_like(res.x)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", corrupted)
    with pytest.raises(TransportError, match=r"^pair 2: duality certificate failed"):
        w1_flow_batch(chain, xs, ys)
    assert calls == [2, 2, 2, 2]


def test_certificate_rejects_a_plan_that_misses_a_marginal(monkeypatch):
    # kernel rows 3 and 4 of the M/M/4 queue differ by +1/2 at 2, -1/2 at 3,
    # +1/3 at 4 and -1/3 at 5; moving 1e-3 of mass from plan entry 4 -> 5 to
    # 2 -> 3, both of cost 1, leaves the value and every dual untouched, but
    # the plan's row sums no longer give the difference.  Both arcs are the
    # first and the last column of the first pass and of the full re-solve.
    chain = build_mmk_chain(2, 4, 10)
    real = scipy.optimize.linprog
    costs = []

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        costs.append(args[0].tolist())
        res.x[0] += 1e-3
        res.x[-1] -= 1e-3
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", corrupted)
    with pytest.raises(TransportError,
                       match=r"^pair 0: duality certificate failed: .*primal defect=1\.000e-03"):
        w1_flow_batch(chain, [3], [4])
    # first pass: 2->3, 4->3, 4->5; then all of 2->3, 2->5, 4->3, 4->5
    assert costs == [[1.0, 1.0, 1.0], [1.0, 3.0, 1.0, 1.0]]


# ------------------------------------------------------------- dominance

def test_dominance_mmk_rows(mmk_2_4):
    p3, p4 = mmk_2_4.kernel[3], mmk_2_4.kernel[4]
    assert stochastic_dominance_check(p3, p4, mmk_2_4.coords)
    # the shortcut: W1 equals the difference of the means
    coords = mmk_2_4.coords
    gap = abs(p4 @ coords - p3 @ coords)
    assert w1_line(p3, p4, mmk_2_4.coords) == pytest.approx(gap, abs=1e-9)


def test_dominance_crossing_cdfs(mmk_2_4):
    mu = measure(mmk_2_4.n, [1], [1.0])
    nu = measure(mmk_2_4.n, [0, 2], [0.5, 0.5])
    assert not stochastic_dominance_check(mu, nu, mmk_2_4.coords)


def test_dominance_reflexive(mmk_2_4):
    mu = measure(mmk_2_4.n, [2, 5], [0.4, 0.6])
    assert stochastic_dominance_check(mu, mu, mmk_2_4.coords)


# ------------------------------------------------------------- validation

def test_rejects_unnormalized(mmk_2_4):
    with pytest.raises(ChainValidationError):
        rows_chain(mmk_2_4, [measure(mmk_2_4.n, [0, 1], [0.5, 0.6])])


def test_rejects_negative_weights(mmk_2_4):
    with pytest.raises(ChainValidationError):
        rows_chain(mmk_2_4, [measure(mmk_2_4.n, [0, 1], [1.5, -0.5])])


def test_rejects_duplicate_support():
    # a support point listed twice is two points at distance 0
    with pytest.raises(ChainValidationError):
        line_chain([0.0, 1.0, 1.0], np.eye(3))


def test_rejects_out_of_range_support(mmk_2_4):
    with pytest.raises(TransportError):
        w1_flow(mmk_2_4, 0, 10_000)
    with pytest.raises(TransportError, match="^pair 1: row index outside the chain"):
        w1_flow_batch(mmk_2_4, [0, -1], [1, 2])
