import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_bounds import (build_discrete_ou_chain, build_mmk_chain,
                          check_epsilon_geodesic, load_chain, w1_line,
                          DiscreteMeasure)
from ricci_bounds import chain_model
from ricci_bounds.errors import ChainFormatError, ChainValidationError

from conftest import (floyd_warshall, irregular_line_chain, line_chain,
                      metric_chain, random_graph_chain, worst_triangle_violation,
                      write_chain_json)


# ---------------------------------------------------------------- M/M/k

def test_mmk_interior_row(mmk_2_4):
    k = mmk_2_4.kernel
    assert k[3, 4] == pytest.approx(2 / 6, abs=1e-15)
    assert k[3, 3] == pytest.approx(1 / 6, abs=1e-15)
    assert k[3, 2] == pytest.approx(3 / 6, abs=1e-15)


def test_mmk_row_zero(mmk_2_4):
    k = mmk_2_4.kernel
    assert k[0, 1] == pytest.approx(2 / 6, abs=1e-15)
    assert k[0, 0] == pytest.approx(4 / 6, abs=1e-15)


def test_mmk_rows_stochastic(mmk_2_4):
    np.testing.assert_allclose(mmk_2_4.kernel.sum(axis=1), 1.0, atol=1e-12)


def test_mmk_tridiagonal_support(mmk_5_10):
    k = mmk_5_10.kernel
    for off in range(2, mmk_5_10.n):
        assert np.all(np.diag(k, off) == 0)
        assert np.all(np.diag(k, -off) == 0)


def test_mmk_origin_and_boundary(mmk_2_4):
    assert mmk_2_4.origin_hint == 2
    # right-jump mass at the last state self-loops
    last = mmk_2_4.n - 1
    assert mmk_2_4.kernel[last, last] == pytest.approx(2 / 6, abs=1e-15)


def test_mmk_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_mmk_chain(4, 4, 40)
    with pytest.raises(ValueError):
        build_mmk_chain(5, 4, 40)
    with pytest.raises(ValueError):
        build_mmk_chain(0, 4, 40)
    with pytest.raises(ValueError):
        build_mmk_chain(2, 4, 3)


# ----------------------------------------------- discretized autoregression

def test_ou_alpha_one_rows_identical():
    chain = build_discrete_ou_chain(1.0, 5.0, 0.1)
    assert float(np.max(np.abs(chain.kernel - chain.kernel[0]))) <= 1e-15


def test_ou_row_mean_tracks_contraction():
    chain = build_discrete_ou_chain(0.5, 10.0, 0.05)
    i = int(np.searchsorted(chain.coords, 2.0))
    assert chain.coords[i] == pytest.approx(2.0)
    mean = float(chain.kernel[i] @ chain.coords)
    assert abs(mean - 1.0) <= 0.05


def test_ou_mirror_symmetry():
    chain = build_discrete_ou_chain(0.5, 10.0, 0.05)
    i = int(np.searchsorted(chain.coords, 2.0))
    j = int(np.searchsorted(chain.coords, -2.0))
    np.testing.assert_allclose(chain.kernel[i], chain.kernel[j][::-1], atol=1e-15)


def test_ou_rows_stochastic_and_variance_declared():
    chain = build_discrete_ou_chain(0.7, 6.0, 0.1)
    np.testing.assert_allclose(chain.kernel.sum(axis=1), 1.0, atol=1e-12)
    assert chain.gaussian_variance == 1.0


def test_ou_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_discrete_ou_chain(0.0, 5.0, 0.1)
    with pytest.raises(ValueError):
        build_discrete_ou_chain(1.2, 5.0, 0.1)
    with pytest.raises(ValueError):
        build_discrete_ou_chain(0.5, 5.0, 1.5)
    with pytest.raises(ValueError):
        build_discrete_ou_chain(0.5, 5.0, -0.1)


def test_ou_refinement_w1_within_step():
    # halving the step moves each discretized row by less than the coarse step
    coarse = build_discrete_ou_chain(0.5, 6.0, 0.2)
    fine = build_discrete_ou_chain(0.5, 6.0, 0.1)
    x = 1.0
    ic = int(np.searchsorted(coarse.coords, x))
    jf = int(np.searchsorted(fine.coords, x))
    coords = np.concatenate([coarse.coords, fine.coords])
    mu = DiscreteMeasure(np.arange(coarse.n), coarse.kernel[ic])
    nu = DiscreteMeasure(np.arange(coarse.n, coarse.n + fine.n), fine.kernel[jf])
    assert w1_line(mu, nu, coords) <= 0.2


# ----------------------------------------------------------------- loader

def test_load_chain_round_trip(tmp_path):
    coords = np.array([0.0, 1.0, 3.0])
    dist = np.abs(coords[:, None] - coords[None, :])
    kernel = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    path = write_chain_json(tmp_path / "chain.json", ["a", "b", "c"],
                            dist, kernel, origin="b")
    chain = load_chain(path)
    assert chain.n == 3
    assert chain.origin_hint == 1
    assert chain.coords is not None  # line metric recognized


def test_load_chain_row_sum_error(tmp_path):
    dist = [[0, 1], [1, 0]]
    kernel = [[0.5, 0.4], [0.5, 0.5]]
    path = write_chain_json(tmp_path / "bad.json", ["a", "b"], dist, kernel)
    with pytest.raises(ChainValidationError, match="row 0"):
        load_chain(path)


def test_load_chain_symmetry_error(tmp_path):
    dist = [[0, 2], [3, 0]]
    kernel = [[1.0, 0.0], [0.0, 1.0]]
    path = write_chain_json(tmp_path / "asym.json", ["a", "b"], dist, kernel)
    with pytest.raises(ChainValidationError, match="not symmetric"):
        load_chain(path)


def test_load_chain_triangle_error(tmp_path):
    dist = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    kernel = np.full((3, 3), 1 / 3)
    path = write_chain_json(tmp_path / "tri.json", ["a", "b", "c"], dist, kernel)
    with pytest.raises(ChainValidationError, match="triangle"):
        load_chain(path)


def test_load_chain_rejects_distinct_points_at_distance_0(tmp_path):
    # a graph of positive distances alone would miss the violation 5 > 0 + 1
    dist = [[0, 0, 5], [0, 0, 1], [5, 1, 0]]
    kernel = np.full((3, 3), 1 / 3)
    path = write_chain_json(tmp_path / "zero.json", ["a", "b", "c"], dist, kernel)
    with pytest.raises(ChainValidationError, match="distinct points 'a' and 'b'"):
        load_chain(path)


def test_triangle_path_metric_needs_complete_graph(monkeypatch):
    # d = 2, 2, 3: the distance-2 graph gives 4 for the distance-3 pair
    thresholds = []
    shortest_paths = chain_model._shortest_paths
    monkeypatch.setattr(chain_model, "_shortest_paths",
                        lambda d, t: thresholds.append(t) or shortest_paths(d, t))
    metric_chain([[0, 2, 3], [2, 0, 2], [3, 2, 0]]).check_triangle_inequality()
    assert thresholds == [2.0, 3.0]


def test_triangle_violation_along_three_hop_path():
    # path edges 0-1-2-3 of length 1, every other distance 10
    d = np.full((4, 4), 10.0)
    np.fill_diagonal(d, 0.0)
    for i in range(3):
        d[i, i + 1] = d[i + 1, i] = 1.0
    with pytest.raises(ChainValidationError,
                       match=r"violated by 8\.000e\+00: d\(0,2\) > d\(0,1\) \+ d\(1,2\)"):
        metric_chain(d).check_triangle_inequality()


def _audit_chain(kind, seed):
    """A small chain of one family: line, graph, Euclidean or planted violation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    if kind == "line":
        return irregular_line_chain(rng, n_points=n, max_support=3)
    if kind == "graph":
        return random_graph_chain(rng, n_points=n, max_support=3)
    if kind == "euclid":
        pts = rng.random((n, int(rng.integers(2, 4))))
        return metric_chain(np.linalg.norm(pts[:, None] - pts[None], axis=-1))
    d = random_graph_chain(rng, n_points=n, max_support=3).dist.copy()
    i, j = rng.choice(n, size=2, replace=False)
    d[i, j] = d[j, i] = d[i, j] * (1.0 + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -0.1))
    return metric_chain(d)


# verdicts are compared where the oracle's figure is rounding-level or beyond
# 1e-8, clear of the 1e-9 tolerance band that the two algorithms may split
_FAMILIES = st.sampled_from(["line", "graph", "euclid", "planted"])


@settings(max_examples=150, deadline=None)
@given(kind=_FAMILIES, seed=st.integers(0, 2**32 - 1))
def test_triangle_check_matches_exhaustive_loop(kind, seed):
    chain = _audit_chain(kind, seed)
    worst = worst_triangle_violation(chain.dist)
    if worst <= 1e-12:
        chain.check_triangle_inequality()
    elif worst > 1e-8:
        with pytest.raises(ChainValidationError, match="triangle"):
            chain.check_triangle_inequality()


def test_load_chain_rejects_nan(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"points": ["a"], "dist": [[0]], "kernel": [[NaN]]}')
    with pytest.raises(ChainFormatError):
        load_chain(path)


def test_load_chain_parse_error_has_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"points": [,]}')
    with pytest.raises(ChainFormatError, match="line 1"):
        load_chain(path)


def test_load_chain_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text('{"points": ["a"], "dist": [[0]]}')
    with pytest.raises(ChainFormatError, match="kernel"):
        load_chain(path)


# ----------------------------------------------------------------- geodesic

def test_geodesic_integer_line(mmk_2_4):
    assert check_epsilon_geodesic(mmk_2_4, 1.0).is_geodesic


def test_geodesic_gap_detected():
    chain = line_chain([0.0, 10.0], np.eye(2))
    report = check_epsilon_geodesic(chain, 1.0)
    assert not report.is_geodesic
    assert sorted(report.witness_failure) == [0, 1]


def test_geodesic_fractional_epsilon_vs_floyd_warshall(mmk_2_4):
    eps = 2.5
    report = check_epsilon_geodesic(mmk_2_4, eps)
    assert report.is_geodesic
    # independent oracle: Floyd-Warshall over the <= eps edge graph
    np.testing.assert_allclose(floyd_warshall(mmk_2_4.dist, eps), mmk_2_4.dist,
                               atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(kind=_FAMILIES, seed=st.integers(0, 2**32 - 1), frac=st.floats(0.02, 1.2))
def test_geodesic_check_matches_floyd_warshall(kind, seed, frac):
    chain = _audit_chain(kind, seed)
    eps = frac * float(chain.dist.max())
    defect = np.abs(floyd_warshall(chain.dist, eps) - chain.dist)
    report = check_epsilon_geodesic(chain, eps)
    worst = float(defect.max())
    if worst <= 1e-12 or worst > 1e-8:
        assert report.is_geodesic == (worst <= 1e-12)
    if not report.is_geodesic:
        assert defect[report.witness_failure] > 1e-9


def test_geodesic_monotone_in_epsilon():
    rng = np.random.default_rng(5)
    coords = np.sort(rng.uniform(0, 10, size=12))
    chain = line_chain(coords, np.eye(12))
    epsilons = np.linspace(0.2, 10.0, 25)
    flags = [check_epsilon_geodesic(chain, e).is_geodesic for e in epsilons]
    assert flags == sorted(flags)  # once true, stays true


def test_geodesic_rejects_bad_epsilon(mmk_2_4):
    with pytest.raises(ValueError):
        check_epsilon_geodesic(mmk_2_4, 0.0)


# ----------------------------------------------------------------- invariants

def test_chain_validation_rejects_negative_kernel():
    with pytest.raises(ChainValidationError, match="negative kernel"):
        line_chain([0.0, 1.0], [[1.1, -0.1], [0.0, 1.0]])


def test_chain_validation_rejects_nonzero_diagonal():
    dist = np.array([[0.5, 1.0], [1.0, 0.0]])
    from ricci_bounds import MetricChain
    with pytest.raises(ChainValidationError, match="diagonal"):
        MetricChain(points=("a", "b"), dist=dist, kernel=np.eye(2))
