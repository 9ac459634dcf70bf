import json
import tempfile
import tracemalloc
import unittest.mock
from decimal import Decimal

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from ricci_bounds import (build_discrete_ou_chain, build_mmk_chain,
                          check_epsilon_geodesic, load_chain, w1_line,
                          MetricChain)
from ricci_bounds import chain_model
from ricci_bounds.curvature import local_curvature
from ricci_bounds.equilibrium import birth_death_law, stationary_birth_death
from ricci_bounds.errors import ChainFormatError, ChainValidationError

from conftest import (cube_chain, floyd_warshall, irregular_line_chain, line_chain,
                      metric_chain, random_graph_chain, worst_triangle_violation,
                      write_chain_json)
from reference_oracles import mmk_kernel_loop


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


@st.composite
def _mmk_sizes(draw):
    n0 = draw(st.integers(1, 200))
    k = draw(st.integers(n0 + 1, n0 + 60))
    return n0, k, draw(st.integers(k, k + 400))


@settings(max_examples=60, deadline=None)
@given(case=_mmk_sizes())
def test_mmk_rates_give_the_law_and_kernel_of_the_chain(case):
    # the CLI sizes a truncation from the law of the rates alone, so it must be
    # the kept chain's law to the bit, and the diagonal fill the per-state loop's
    chain = build_mmk_chain(*case)
    up, _, down = chain_model.mmk_rates(*case)
    assert np.array_equal(birth_death_law(up, down),
                          stationary_birth_death(chain).distribution)
    assert np.array_equal(chain.kernel, mmk_kernel_loop(*case))


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


def test_builders_hold_the_dense_chain_budget(monkeypatch):
    monkeypatch.setattr(chain_model, "MAX_DENSE_STATES", 51)
    assert build_mmk_chain(2, 4, 50).n == 51
    assert build_discrete_ou_chain(0.5, 2.5, 0.1).n == 51
    with pytest.raises(ValueError, match="^52 states exceed the dense-chain budget "
                                         "MAX_DENSE_STATES = 51 "):
        build_mmk_chain(2, 4, 51)
    with pytest.raises(ValueError, match="^53 states exceed the dense-chain budget"):
        build_discrete_ou_chain(0.5, 2.6, 0.1)


def test_ou_refinement_w1_within_step():
    # halving the step moves each discretized row by less than the coarse step
    coarse = build_discrete_ou_chain(0.5, 6.0, 0.2)
    fine = build_discrete_ou_chain(0.5, 6.0, 0.1)
    x = 1.0
    ic = int(np.searchsorted(coarse.coords, x))
    jf = int(np.searchsorted(fine.coords, x))
    coords = np.concatenate([coarse.coords, fine.coords])
    mu = np.concatenate([coarse.kernel[ic], np.zeros(fine.n)])
    nu = np.concatenate([np.zeros(coarse.n), fine.kernel[jf]])
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


def test_load_chain_infers_coords_only_for_a_line_metric(tmp_path):
    line = build_mmk_chain(5, 10, 30)
    path = write_chain_json(tmp_path / "line.json", line.points, line.dist, line.kernel)
    loaded = load_chain(path)
    # the anchor is the point farthest from point 0: here the last state
    np.testing.assert_array_equal(loaded.coords, 30.0 - line.coords)
    cube = cube_chain(3, 0.2)
    path = write_chain_json(tmp_path / "cube.json", cube.points, cube.dist, cube.kernel)
    assert load_chain(path).coords is None


def test_line_coords_inference_copies_no_dense_matrix():
    # row blocks of about 2^19 entries; |coords[:, None] - coords[None, :]|
    # and np.allclose's temporaries peaked at about 3 x dist.nbytes
    dist = build_mmk_chain(900, 930, 1940).dist
    tracemalloc.start()
    try:
        coords = chain_model._infer_line_coords(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coords is not None
    assert peak < dist.nbytes / 2


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


def _dijkstra(d, t):
    """scipy's undirected Dijkstra over the entries with 0 < d <= t, from a dense copy."""
    return shortest_path(csr_array(np.where(d <= t, d, 0.0)), directed=False)


def _counting_dijkstra():
    # `_shortest_paths` imports shortest_path when it calls it, so it reads the patch
    return unittest.mock.patch.object(scipy.sparse.csgraph, "shortest_path",
                                      wraps=scipy.sparse.csgraph.shortest_path)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 63, 64, 65, 130]),
       t=st.sampled_from([0.1, 1 / 3, 1.0, 2.5]),
       density=st.sampled_from([0.0, 0.03, 0.1, 0.5, 1.0]),
       one_way=st.sampled_from([0.0, 0.2, 1.0]), split=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_search_matches_dijkstra_bit_for_bit(n, t, density, one_way, split, seed):
    # edges of one weight t on random pairs; other pairs lie in (t, 64 t], so
    # every graph with an edge and fewer than 64 hops across is searched.
    # `split` cuts the points into two halves with no edge between them, and
    # `one_way` of the edges have the reverse entry just past t
    rng = np.random.default_rng(seed)
    d = t * rng.uniform(1.5, 64.0, size=(n, n))
    d[0, -1] = 64 * t
    edge = np.triu(rng.random((n, n)) < density, 1)
    if split:
        edge[:n // 2, n // 2:] = False
    i, j = np.nonzero(edge)
    d[i, j] = d[j, i] = t
    flip = rng.random(i.size) < 0.5
    one = rng.random(i.size) < one_way
    d[np.where(flip, i, j)[one], np.where(flip, j, i)[one]] = np.nextafter(t, np.inf)
    np.fill_diagonal(d, 0.0)
    expected = _dijkstra(d, t)
    with _counting_dijkstra() as dijkstra:
        lengths = chain_model._shortest_paths(d, t)
    assert np.array_equal(lengths, expected)
    hops = np.round(expected[np.isfinite(expected)] / t)
    searched = i.size > 0 and hops.max() < chain_model.BFS_LEVELS
    assert dijkstra.call_count == (0 if searched else 1)


@pytest.mark.parametrize("bits", [6, 7])
def test_search_matches_dijkstra_on_hamming_cubes(bits):
    d = cube_chain(bits, 0.1).dist
    with _counting_dijkstra() as dijkstra:
        lengths = chain_model._shortest_paths(d, 1.0)
    assert dijkstra.call_count == 0
    assert np.array_equal(lengths, _dijkstra(d, 1.0))
    assert np.array_equal(lengths, d)


def _path_or_two(n):
    """d = 1 between neighbours on a path of n points, else 2."""
    idx = np.arange(n)
    d = np.where(np.abs(np.subtract.outer(idx, idx)) == 1, 1.0, 2.0)
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("n, solves", [(64, 0), (65, 1), (100, 1)])
def test_a_search_with_a_frontier_after_64_levels_goes_to_dijkstra(n, solves):
    # the graph of distance 1 is n - 1 hops across: at 64 hops the 64th level
    # still finds pairs, and the graph goes to Dijkstra
    d = _path_or_two(n)
    with _counting_dijkstra() as dijkstra:
        lengths = chain_model._shortest_paths(d, 1.0)
    assert dijkstra.call_count == solves
    assert np.array_equal(lengths, _dijkstra(d, 1.0))


def test_a_metric_past_the_search_keeps_its_verdict():
    # the path graph of 100 points goes to Dijkstra, and so does the complete
    # graph, which has two weights and realizes the metric
    chain = metric_chain(_path_or_two(100))
    with _counting_dijkstra() as dijkstra:
        chain.check_triangle_inequality()
    assert dijkstra.call_count == 2 and chain.geodesic_at == 2.0
    assert check_epsilon_geodesic(chain, 1.0) == (0, 99)


def test_loading_a_cube_searches_and_a_line_solves_nothing(tmp_path, monkeypatch):
    # the Hamming graph of cube6 is 6 hops across, so the search proves it with
    # no Dijkstra; a line metric is proved by its coordinates, with no shortest
    # paths at all: a unit-gap line of 200 states (199 smallest distances
    # across) and an irregular line (a complete graph of many weights)
    cube = cube_chain(6, 0.05)
    cube_path = write_chain_json(tmp_path / "cube6.json", cube.points, cube.dist,
                                 cube.kernel)
    with _counting_dijkstra() as dijkstra:
        assert load_chain(cube_path).geodesic_at == 1.0
    assert dijkstra.call_count == 0
    searches = []
    shortest_paths = chain_model._shortest_paths
    monkeypatch.setattr(chain_model, "_shortest_paths",
                        lambda d, t: searches.append(t) or shortest_paths(d, t))
    unit = np.abs(np.subtract.outer(np.arange(200), np.arange(200))).astype(float)
    irregular = irregular_line_chain(np.random.default_rng(4), n_points=200)
    for name, dist in (("unit", unit), ("irregular", irregular.dist)):
        path = write_chain_json(tmp_path / f"{name}.json", [str(i) for i in range(200)],
                                dist, np.eye(200))
        chain = load_chain(path)
        assert chain.coords is not None and chain.geodesic_at is None, name
        assert check_epsilon_geodesic(chain, 0.1) is not None
    assert searches == []


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
    # every truncation of a chain file, and the file after a byte order mark or
    # before more text, fails where json.loads fails, with its message
    doc = {"points": ["a", "\u00e9\"b"], "origin": None,
           "dist": [[0, 1.5], [15e-1, -0.0]], "kernel": [[0.25, 0.75], [1e-1, 0.9]]}
    text = json.dumps(doc, indent="\t")
    for broken in [text[:end] for end in range(len(text))] + ["\ufeff" + text, text + " x"]:
        path.write_text(broken, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(path.read_text(encoding="utf-8"))
        with pytest.raises(ChainFormatError) as got:
            load_chain(path)
        e = want.value
        assert str(got.value) == f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"


def test_load_chain_parse_errors_match_json_after_one_edit(tmp_path):
    # trailing commas, which Python 3.13 names in messages of its own: in the
    # top-level object, in dist's rows and inside a row; then the doc above with
    # one character dropped, or with a comma put before it
    path = tmp_path / "broken.json"
    doc = {"points": ["a", "é\"b"], "origin": None,
           "dist": [[0, 1.5], [15e-1, -0.0]], "kernel": [[0.25, 0.75], [1e-1, 0.9]]}
    text = json.dumps(doc, indent=1)
    edits = (['{"points": ["a"],}', '{"points": ["a"], "dist": [[0],]}',
              '{"points": ["a"], "dist": [[0] , ] }', '{"points": ["a"], "dist": [[0,]]}',
              '{"points": ["a"], "kernel": [[1], [0 ,\n]]}']
             + [text[:at] + text[at + 1:] for at in range(len(text))]
             + [text[:at] + "," + text[at:] for at in range(len(text))])
    checked = 0
    for broken in edits:
        try:
            json.loads(broken)
            continue                       # an edit to a blank or a string: still JSON
        except json.JSONDecodeError as e:
            want = f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        path.write_text(broken, encoding="utf-8")
        with pytest.raises(ChainFormatError) as got:
            load_chain(path)
        assert str(got.value) == want, broken
        checked += 1
    assert checked > len(text)


def test_load_chain_keeps_labels_that_spell_json_values(tmp_path):
    # labels are str() of the points' JSON values; "true" and "false" are
    # strings, which leave the rows' own booleans check alone
    path = tmp_path / "labels.json"
    for labels, want in (([[0, 0], [0, 1]], ("[0, 0]", "[0, 1]")),
                         (["true", "false"], ("true", "false"))):
        write_chain_json(path, labels, [[0, 1], [1, 0]], [[0.5, 0.5], [0.25, 0.75]])
        chain = load_chain(path)
        assert chain.points == want
        assert chain.kernel.tolist() == [[0.5, 0.5], [0.25, 0.75]]


_GAPS = st.sampled_from(["", " ", "\t", "\n", "\r\n", " \n\t "])


@st.composite
def spelled_number(draw, value):
    """`value`, an int or a float, as one of the JSON spellings of its decimal:
    its own text, or its digits with the point moved into an exponent."""
    text = str(value) if isinstance(value, int) else repr(value)
    if draw(st.booleans()):
        return text
    sign, digits, exp = Decimal(text).as_tuple()
    mantissa = "".join(map(str, digits))
    point = draw(st.integers(1, len(mantissa)))
    frac = "." + mantissa[point:] if point < len(mantissa) else ""
    power = exp + len(mantissa) - point
    return (("-" if sign else "") + mantissa[:point] + frac + draw(st.sampled_from("eE"))
            + ("+" if power >= 0 and draw(st.booleans()) else "") + str(power))


@st.composite
def spelled_chains(draw):
    """The text of a valid chain file whose matrices are spelled in many ways:
    exponents, -0.0 on the diagonal, integers past 2^53 and 2^64, any key
    order, tabs and newlines, and refused matrices under keys that a later
    duplicate overrides."""
    n = draw(st.integers(1, 4))
    # off-diagonal distances in [lo, 2 lo] satisfy every triangle inequality
    lo = draw(st.sampled_from([1, 2 ** 53 + 1, 2 ** 64 + 1, 0.75, 3e-7, 4e21]))
    side = st.integers(lo, 2 * lo) if isinstance(lo, int) else st.floats(lo, 2 * lo)
    upper = {(i, j): draw(side) for i in range(n) for j in range(i + 1, n)}
    zero = st.sampled_from(["0", "-0", "0.0", "-0.0", "0e5", "-0E-3"])

    def matrix(spell):
        rows = ["[" + draw(_GAPS) + ("," + draw(_GAPS)).join(spell(i, j) for j in range(n))
                + draw(_GAPS) + "]" for i in range(n)]
        return "[" + draw(_GAPS) + ("," + draw(_GAPS)).join(rows) + draw(_GAPS) + "]"

    def distance(i, j):
        return draw(zero) if i == j else draw(spelled_number(upper[min(i, j), max(i, j)]))

    counts = [draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
              for _ in range(n)]

    def mass(i, j):
        value = counts[i][j] / sum(counts[i])
        return draw(zero) if value == 0 else draw(spelled_number(value))

    fields = [("points", json.dumps([f"p{i}" for i in range(n)])),
              ("dist", matrix(distance)), ("kernel", matrix(mass))]
    if draw(st.booleans()):
        fields.append(("origin", str(draw(st.integers(0, n - 1)))))
    fields = draw(st.permutations(fields))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(fields) - 1))
        if fields[at][0] in ("dist", "kernel"):
            decoy = draw(st.sampled_from(['[[1, "x"]]', "[[true]]", "[]", "[[0], [1, 2]]", "7"]))
            fields.insert(at, (fields[at][0], decoy))
    return "{" + draw(_GAPS) + ("," + draw(_GAPS)).join(
        f'"{key}"{draw(_GAPS)}:{draw(_GAPS)}{value}' for key, value in fields) + draw(_GAPS) + "}"


@settings(max_examples=150, deadline=None)
@given(spelled_chains())
def test_load_chain_reads_the_numbers_json_reads(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/chain.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        chain = load_chain(path)
    doc = json.loads(text)
    for key, got in (("dist", chain.dist), ("kernel", chain.kernel)):
        assert got.tobytes() == np.array(doc[key], dtype=float).tobytes()


def test_a_second_load_of_cube9_peaks_under_10_mb(tmp_path):
    # the 2.2 MB file text, the two 2 MB matrices and the checks' row blocks;
    # parsing the whole document into Python lists first peaked near 15 MB
    cube = cube_chain(9, 0.3)
    path = write_chain_json(tmp_path / "cube9.json", cube.points, cube.dist.astype(int),
                            cube.kernel, origin=0)
    load_chain(path)                              # warm the import caches
    tracemalloc.start()
    try:
        load_chain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_load_chain_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text('{"points": ["a"], "dist": [[0]]}')
    with pytest.raises(ChainFormatError, match="kernel"):
        load_chain(path)


# ----------------------------------------------------------------- geodesic

def test_geodesic_integer_line(mmk_2_4):
    assert check_epsilon_geodesic(mmk_2_4, 1.0) is None


def test_geodesic_gap_detected():
    chain = line_chain([0.0, 10.0], np.eye(2))
    witness = check_epsilon_geodesic(chain, 1.0)
    assert witness is not None
    assert sorted(witness) == [0, 1]


def test_geodesic_fractional_epsilon_vs_floyd_warshall(mmk_2_4):
    eps = 2.5
    assert check_epsilon_geodesic(mmk_2_4, eps) is None
    # independent oracle: Floyd-Warshall over the <= eps edge graph
    np.testing.assert_allclose(floyd_warshall(mmk_2_4.dist, eps), mmk_2_4.dist,
                               atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(kind=_FAMILIES, seed=st.integers(0, 2**32 - 1), frac=st.floats(0.02, 1.2))
def test_geodesic_check_matches_floyd_warshall(kind, seed, frac):
    chain = _audit_chain(kind, seed)
    eps = frac * float(chain.dist.max())
    defect = np.abs(floyd_warshall(chain.dist, eps) - chain.dist)
    witness = check_epsilon_geodesic(chain, eps)
    worst = float(defect.max())
    if worst <= 1e-12 or worst > 1e-8:
        assert (witness is None) == (worst <= 1e-12)
    if witness is not None:
        assert defect[witness] > 1e-9


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["graph", "euclid"]), seed=st.integers(0, 2**32 - 1),
       step=st.integers(0, 3))
def test_geodesic_check_after_the_triangle_check_matches_a_fresh_solve(kind, seed, step):
    # eps at one of the smallest distances, just under and just past it, and
    # midway to the diameter: a chain that recorded its triangle check must
    # answer as a chain without the record solves (a graph that is a line
    # metric has coords, which prove it with no record)
    chain = _audit_chain(kind, seed)
    chain.check_triangle_inequality()
    fresh = MetricChain(points=chain.points, dist=chain.dist, kernel=chain.kernel)
    assert (chain.geodesic_at is not None) == (chain.coords is None)
    assert fresh.geodesic_at is None
    values = np.unique(chain.dist[chain.dist > 0])
    eps = values[min(step, values.size - 1)]
    for e in (eps, eps + 1e-13, np.nextafter(eps, 0.0), (eps + values[-1]) / 2):
        assert check_epsilon_geodesic(chain, e) == check_epsilon_geodesic(fresh, e)


def test_geodesic_monotone_in_epsilon():
    rng = np.random.default_rng(5)
    coords = np.sort(rng.uniform(0, 10, size=12))
    chain = line_chain(coords, np.eye(12))
    epsilons = np.linspace(0.2, 10.0, 25)
    flags = [check_epsilon_geodesic(chain, e) is None for e in epsilons]
    assert flags == sorted(flags)  # once true, stays true


def test_geodesic_rejects_bad_epsilon(mmk_2_4):
    with pytest.raises(ValueError):
        check_epsilon_geodesic(mmk_2_4, 0.0)


# ----------------------------------------------------------------- invariants

def test_chain_validation_copies_no_dense_matrix():
    # the checks are reductions and row blocks; a full n x n float
    # temporary (as np.abs(dist - dist.T) makes two of) would exceed this
    built = build_mmk_chain(900, 930, 1940)
    tracemalloc.start()
    try:
        MetricChain(points=built.points, dist=built.dist, kernel=built.kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < built.dist.nbytes / 2


def test_chain_validation_rejects_coords_that_miss_dist():
    # the metric is given once, so coords that miss dist cannot be posed:
    # reversed and stretched coords beside dist gave local_curvature(chain, 2)
    # = -1.8 at the origin 5, where the M/M/k chain's true value is 1/15
    c = build_mmk_chain(5, 10, 50)
    with pytest.raises(ChainValidationError, match="not both or neither"):
        MetricChain(points=c.points, dist=c.dist, kernel=c.kernel, coords=c.coords[::-1] * 3)
    with pytest.raises(ChainValidationError, match="not both or neither"):
        MetricChain(points=c.points, kernel=c.kernel)
    with pytest.raises(ChainValidationError, match="must be finite"):
        MetricChain(points=c.points, kernel=c.kernel,
                    coords=np.where(c.coords == 7, np.nan, c.coords))


def test_a_line_chain_from_coords_or_from_dist_is_one_chain():
    # dist filled from coords has the bits of |coords[:, None] - coords[None, :]|,
    # and the same dist given directly gets inferred coords and the line route
    built = irregular_line_chain(np.random.default_rng(23), n_points=40, max_support=7)
    coords = built.coords
    given = MetricChain(points=built.points, kernel=built.kernel,
                        dist=np.abs(coords[:, None] - coords[None, :]))
    assert built.dist.tobytes() == given.dist.tobytes()
    assert built.coords is not None and given.coords is not None
    for eps in (2.0, 3.5, 6.0):            # gaps are below 2, so no point is isolated
        np.testing.assert_allclose(local_curvature(given, eps), local_curvature(built, eps),
                                   rtol=0, atol=1e-12)


def test_chain_from_coords_fills_dist_in_place():
    n = 1941
    coords, kernel = np.arange(n, dtype=float), np.eye(n)
    points = tuple(map(str, range(n)))
    tracemalloc.start()
    try:
        chain = MetricChain(points=points, kernel=kernel, coords=coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * chain.dist.nbytes


def test_chain_from_coords_checks_without_a_matrix_temporary():
    # at 700 points one row block of the symmetry scan is the whole matrix,
    # so that scan alone would double the peak of dist itself
    n = 700
    coords, kernel = np.arange(n, dtype=float)[::-1].copy(), np.eye(n)
    points = tuple(map(str, range(n)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        chain = MetricChain(points=points, kernel=kernel, coords=coords)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * chain.dist.nbytes, peak


def test_coinciding_coords_name_the_pair_a_loaded_dist_names():
    # both metrics go through the same check: the first pair in row order
    coords = np.array([2.0, 0.0, 1.0, -0.0, 2.0])
    points, kernel = tuple(f"p{i}" for i in range(coords.size)), np.eye(coords.size)
    for metric in (dict(coords=coords), dict(dist=np.abs(coords[:, None] - coords[None, :]))):
        with pytest.raises(ChainValidationError, match="'p0' and 'p4' at distance 0"):
            MetricChain(points=points, kernel=kernel, **metric)


def test_chain_validation_rejects_negative_kernel():
    with pytest.raises(ChainValidationError, match="negative kernel"):
        line_chain([0.0, 1.0], [[1.1, -0.1], [0.0, 1.0]])


def test_chain_validation_rejects_nonzero_diagonal():
    dist = np.array([[0.5, 1.0], [1.0, 0.0]])
    from ricci_bounds import MetricChain
    with pytest.raises(ChainValidationError, match="diagonal"):
        MetricChain(points=("a", "b"), dist=dist, kernel=np.eye(2))
