import numpy as np
import pytest
from scipy.stats import wasserstein_distance as scipy_w1

from ricci_bounds import (DiscreteMeasure, MetricChain, build_mmk_chain, w1_flow,
                          w1_flow_batch, w1_line)
from ricci_bounds import transport
from ricci_bounds.errors import TransportError

from conftest import line_chain, random_graph_chain
from reference_oracles import stochastic_dominance_check


def measure(support, weights):
    return DiscreteMeasure(np.asarray(support), np.asarray(weights, dtype=float))


def random_line_instance(rng, n_points=60, max_support=50):
    coords = np.sort(rng.uniform(-20, 20, size=n_points))
    chain = line_chain(coords, np.eye(n_points))

    def rand_measure():
        size = rng.integers(1, max_support + 1)
        support = rng.choice(n_points, size=size, replace=False)
        weights = rng.random(size)
        return measure(support, weights / weights.sum())

    return chain, rand_measure


# ------------------------------------------------------------ frozen values

def test_point_masses_distance(mmk_2_4):
    mu = DiscreteMeasure(support=[0], weights=[1.0])
    nu = DiscreteMeasure(support=[3], weights=[1.0])
    assert w1_line(mu, nu, mmk_2_4.coords) == pytest.approx(3.0, abs=1e-12)
    assert w1_flow(mu, nu, mmk_2_4) == pytest.approx(3.0, abs=1e-12)


def test_split_mass_vs_center(mmk_2_4):
    # brute force over the only coupling: both half-atoms move distance 1
    mu = measure([0, 2], [0.5, 0.5])
    nu = DiscreteMeasure(support=[1], weights=[1.0])
    assert w1_line(mu, nu, mmk_2_4.coords) == pytest.approx(1.0, abs=1e-12)
    assert w1_flow(mu, nu, mmk_2_4) == pytest.approx(1.0, abs=1e-12)


def test_identical_measures_zero(mmk_2_4):
    mu = measure([1, 4, 7], [0.2, 0.5, 0.3])
    assert w1_line(mu, mu, mmk_2_4.coords) == 0.0
    assert w1_flow(mu, mu, mmk_2_4) == 0.0


def test_uniform_pairs_brute_force(mmk_2_4):
    # optimum couples 0->2 and 1->3 (any coupling costs exactly 2 here)
    mu = measure([0, 1], [0.5, 0.5])
    nu = measure([2, 3], [0.5, 0.5])
    assert w1_flow(mu, nu, mmk_2_4) == pytest.approx(2.0, abs=1e-12)


def test_mmk_kernel_rows_w1(mmk_2_4):
    mu = DiscreteMeasure.from_vector(mmk_2_4.kernel[3])
    nu = DiscreteMeasure.from_vector(mmk_2_4.kernel[4])
    assert w1_flow(mu, nu, mmk_2_4) == pytest.approx(5 / 6, abs=1e-12)


# ------------------------------------------------------- route cross-checks

def test_line_vs_flow_vs_scipy():
    rng = np.random.default_rng(11)
    chain, rand_measure = random_line_instance(rng)
    for _ in range(40):
        mu, nu = rand_measure(), rand_measure()
        line = w1_line(mu, nu, chain.coords)
        flow = w1_flow(mu, nu, chain)
        ref = scipy_w1(chain.coords[mu.support], chain.coords[nu.support],
                       mu.weights, nu.weights)
        assert abs(line - flow) <= 1e-9
        assert line == pytest.approx(ref, abs=1e-9)


def test_duality_certificate_fields():
    rng = np.random.default_rng(3)
    chain, rand_measure = random_line_instance(rng)
    mu, nu = rand_measure(), rand_measure()
    cert, = w1_flow_batch([(mu, nu)], chain)
    assert cert.duality_gap <= 1e-9
    assert cert.lipschitz_defect <= 1e-9
    # the plan is a feasible coupling
    np.testing.assert_allclose(cert.plan.sum(axis=1), mu.weights, atol=1e-9)
    np.testing.assert_allclose(cert.plan.sum(axis=0), nu.weights, atol=1e-9)
    # and the potential attains the value
    pos_mu = np.searchsorted(cert.union_support, mu.support)
    pos_nu = np.searchsorted(cert.union_support, nu.support)
    dual = cert.potential[pos_mu] @ mu.weights - cert.potential[pos_nu] @ nu.weights
    assert dual == pytest.approx(cert.value, abs=1e-9)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(17)
    chain, rand_measure = random_line_instance(rng, max_support=20)
    for _ in range(20):
        a, b, c = rand_measure(), rand_measure(), rand_measure()
        ab = w1_flow(a, b, chain)
        bc = w1_flow(b, c, chain)
        ac = w1_flow(a, c, chain)
        assert ac <= ab + bc + 1e-9


def test_flow_on_nonline_metric():
    # a 4-cycle metric (no line embedding): flow still certifies
    dist = np.array([[0, 1, 2, 1],
                     [1, 0, 1, 2],
                     [2, 1, 0, 1],
                     [1, 2, 1, 0]], dtype=float)
    from ricci_bounds import MetricChain
    chain = MetricChain(points=("a", "b", "c", "d"), dist=dist,
                        kernel=np.full((4, 4), 0.25))
    mu = measure([0], [1.0])
    nu = measure([1, 3], [0.5, 0.5])
    assert w1_flow(mu, nu, chain) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ batched LP

def random_pairs(rng, n_points, count, max_support=6):
    def rand_measure():
        support = rng.choice(n_points, size=rng.integers(1, max_support + 1),
                             replace=False)
        weights = rng.random(support.size) + 0.05
        return measure(support, weights / weights.sum())
    return [(rand_measure(), rand_measure()) for _ in range(count)]


def test_batch_matches_per_pair_solves():
    rng = np.random.default_rng(5)
    chain = random_graph_chain(rng)
    pairs = random_pairs(rng, chain.n, 12)
    pairs.insert(4, (pairs[0][0], pairs[0][0]))        # identical measures
    sizes = {(mu.support.size, nu.support.size) for mu, nu in pairs}
    assert len(sizes) > 3                               # ragged blocks
    batch = w1_flow_batch(pairs, chain)
    assert len(batch) == len(pairs)
    assert batch[4].value == 0.0
    for (mu, nu), cert in zip(pairs, batch):
        single, = w1_flow_batch([(mu, nu)], chain)
        assert cert.value == pytest.approx(single.value, abs=1e-12)
        assert cert.plan.shape == single.plan.shape == (mu.support.size, nu.support.size)
        np.testing.assert_array_equal(cert.union_support, single.union_support)
        assert cert.duality_gap <= transport.CERT_TOL
        assert 0.0 <= cert.lipschitz_defect <= transport.CERT_TOL
        np.testing.assert_allclose(cert.plan.sum(axis=1), mu.weights, atol=1e-9)
        np.testing.assert_allclose(cert.plan.sum(axis=0), nu.weights, atol=1e-9)


def test_batch_of_nothing_solves_nothing(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("no LP expected")
    monkeypatch.setattr(transport, "linprog", no_solve)
    chain = random_graph_chain(np.random.default_rng(1))
    mu = measure([0, 2], [0.5, 0.5])
    assert w1_flow_batch([], chain) == []
    assert w1_flow_batch([(mu, mu)], chain)[0].value == 0.0


def four_cycle_pairs():
    """The 4-cycle a-b-c-d and three pairs with W1 = 1, 1 and 1.5, two LP variables each."""
    dist = np.array([[0, 1, 2, 1],
                     [1, 0, 1, 2],
                     [2, 1, 0, 1],
                     [1, 2, 1, 0]], dtype=float)
    chain = MetricChain(points=("a", "b", "c", "d"), dist=dist,
                        kernel=np.full((4, 4), 0.25))
    pairs = [(measure([0], [1.0]), measure([1, 3], [0.5, 0.5])),
             (measure([0], [1.0]), measure([0, 2], [0.5, 0.5])),
             (measure([1, 2], [0.5, 0.5]), measure([3], [1.0]))]
    return chain, pairs


def test_batch_certificate_names_the_corrupted_pair(monkeypatch):
    # a 4-cycle: pair 1 moves half of nu's mass from a to c (W1 = 1), and
    # zero duals on its nu rows leave a potential that vanishes on nu's
    # support, so its dual value drops to 0 while its neighbours stay exact
    chain, pairs = four_cycle_pairs()
    assert [c.value for c in w1_flow_batch(pairs, chain)] == pytest.approx([1.0, 1.0, 1.5])
    nu_rows = slice(4, 6)   # block 0 holds rows 0-2, block 1's mu row is row 3
    real = transport.linprog

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.eqlin.marginals[nu_rows] = 0.0
        return res

    monkeypatch.setattr(transport, "linprog", corrupted)
    with pytest.raises(TransportError, match=r"^pair 1: duality certificate failed"):
        w1_flow_batch(pairs, chain)


def test_split_batch_names_the_pair_by_its_index_in_the_call(monkeypatch):
    # a 1-variable budget gives every pair its own LP; a zeroed primal in the
    # third LP must be reported as pair 2, its index in the caller's list
    chain, pairs = four_cycle_pairs()
    monkeypatch.setattr(transport, "LP_BATCH_VARS", 1)
    real = transport.linprog
    calls = []

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res.x.size)
        if len(calls) == 3:
            res.x = np.zeros_like(res.x)
        return res

    monkeypatch.setattr(transport, "linprog", corrupted)
    with pytest.raises(TransportError, match=r"^pair 2: duality certificate failed"):
        w1_flow_batch(pairs, chain)
    assert calls == [2, 2, 2]


def test_certificate_rejects_a_plan_that_misses_a_marginal(monkeypatch):
    # kernel rows 3 and 4 of the M/M/4 queue share point 3, so the plan
    # variable 3 -> 3 costs nothing: extra mass on it leaves the value and
    # every dual untouched, but the plan's row sums no longer give mu
    chain = build_mmk_chain(2, 4, 10)
    mu, nu = (DiscreteMeasure.from_vector(chain.kernel[i]) for i in (3, 4))
    free = int(np.flatnonzero(mu.support == 3)[0] * nu.support.size
               + np.flatnonzero(nu.support == 3)[0])
    real = transport.linprog

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        assert args[0][free] == 0.0
        res.x[free] += 1e-3
        return res

    monkeypatch.setattr(transport, "linprog", corrupted)
    with pytest.raises(TransportError,
                       match=r"^pair 0: duality certificate failed: .*primal defect=1\.000e-03"):
        w1_flow_batch([(mu, nu)], chain)


# ------------------------------------------------------------- dominance

def test_dominance_mmk_rows(mmk_2_4):
    p3 = DiscreteMeasure.from_vector(mmk_2_4.kernel[3])
    p4 = DiscreteMeasure.from_vector(mmk_2_4.kernel[4])
    assert stochastic_dominance_check(p3, p4, mmk_2_4.coords)
    # the shortcut: W1 equals the difference of the means
    coords = mmk_2_4.coords
    gap = abs(p4.weights @ coords[p4.support] - p3.weights @ coords[p3.support])
    assert w1_line(p3, p4, mmk_2_4.coords) == pytest.approx(gap, abs=1e-9)


def test_dominance_crossing_cdfs(mmk_2_4):
    mu = DiscreteMeasure(support=[1], weights=[1.0])
    nu = measure([0, 2], [0.5, 0.5])
    assert not stochastic_dominance_check(mu, nu, mmk_2_4.coords)


def test_dominance_reflexive(mmk_2_4):
    mu = measure([2, 5], [0.4, 0.6])
    assert stochastic_dominance_check(mu, mu, mmk_2_4.coords)


# ------------------------------------------------------------- validation

def test_rejects_unnormalized():
    with pytest.raises(TransportError):
        measure([0, 1], [0.5, 0.6])


def test_rejects_negative_weights():
    with pytest.raises(TransportError):
        measure([0, 1], [1.5, -0.5])


def test_rejects_duplicate_support():
    with pytest.raises(TransportError):
        measure([1, 1], [0.5, 0.5])


def test_rejects_out_of_range_support(mmk_2_4):
    mu = measure([0], [1.0])
    nu = measure([10_000], [1.0])
    with pytest.raises(TransportError):
        w1_flow(mu, nu, mmk_2_4)
