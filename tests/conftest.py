import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from ricci_bounds import MetricChain, build_mmk_chain, simulate_paths

BENCH = Path(__file__).resolve().parent.parent / "bench"


def import_from_bench(*names):
    """Import bench modules by name without writing anything under bench/."""
    sys.path.insert(0, str(BENCH))  # the bench modules import each other by name
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))


def sampled_paths(config, levels=()):
    """(samples, tally): the X_T blocks `simulate_paths` hands its sink,
    joined in path order, and the tally of that same pass."""
    blocks = []
    tally = simulate_paths(config, levels, blocks.append)
    return np.concatenate(blocks), tally


@pytest.fixture(scope="session")
def mmk_2_4():
    return build_mmk_chain(2, 4, 40)


@pytest.fixture(scope="session")
def mmk_5_10():
    return build_mmk_chain(5, 10, 60)


def line_chain(coords, kernel, origin=None):
    coords = np.asarray(coords, dtype=float)
    return MetricChain(points=tuple(str(c) for c in coords),
                       kernel=np.asarray(kernel, dtype=float),
                       origin_hint=origin, coords=coords)


def biased_reflecting_walk(n_states, p_up):
    """Zero-curvature line walk: up with p_up, down (reflecting at 0) otherwise."""
    kernel = np.zeros((n_states, n_states))
    for i in range(n_states):
        if i + 1 < n_states:
            kernel[i, i + 1] = p_up
        else:
            kernel[i, i] += p_up
        if i > 0:
            kernel[i, i - 1] = 1.0 - p_up
        else:
            kernel[i, i] += 1.0 - p_up
    return line_chain(np.arange(n_states, dtype=float), kernel, origin=0)


def birth_death_chain(up, down, origin=0):
    """Line chain on 0..n-1 with unit gaps: state i moves up with up[i] and
    down with down[i - 1], and stays put with the rest of its row."""
    up, down = np.asarray(up, dtype=float), np.asarray(down, dtype=float)
    kernel = np.diag(up, 1) + np.diag(down, -1)
    kernel += np.diag(1.0 - kernel.sum(axis=1))
    return line_chain(np.arange(up.size + 1, dtype=float), kernel, origin=origin)


def reversal_chain():
    """40 states: inward drift on 0..3 (down 0.5, up 0.1), outward beyond
    (down 0.1, up 0.5).  rho = 0.4 on the annulus at eps 1, but K_eps = -0.8
    at states 3 and 4, and nearly all the stationary mass sits at the far end."""
    up = np.where(np.arange(39) < 4, 0.1, 0.5)
    down = np.where(np.arange(1, 40) < 4, 0.5, 0.1)
    return birth_death_chain(up, down)


def star_chain():
    """A periodic 4-state star: the centre moves to a uniform leaf, each leaf
    moves back.  Its kernel is not tridiagonal, and power iteration from the
    uniform start never settles."""
    kernel = np.zeros((4, 4))
    kernel[0, 1:] = 1 / 3
    kernel[1:, 0] = 1.0
    dist = np.full((4, 4), 2.0)
    dist[0, :] = dist[:, 0] = 1.0
    np.fill_diagonal(dist, 0.0)
    return MetricChain(points=("c", "a", "b", "d"), dist=dist, kernel=kernel)


def write_chain_json(path, points, dist, kernel, origin=None):
    doc = {"points": list(points), "dist": np.asarray(dist).tolist(),
           "kernel": np.asarray(kernel).tolist()}
    if origin is not None:
        doc["origin"] = origin
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def cube_chain(bits, p):
    """Biased resampling chain on {0,1}^bits under the Hamming metric.

    One step picks a coordinate uniformly and redraws it from Bernoulli(p);
    coarse Ricci curvature is exactly 1/bits for every p (Ollivier, JFA 2009).
    """
    n = 1 << bits
    states = np.arange(n)
    flips = states[:, None] ^ states[None, :]
    dist = np.array([[bin(int(f)).count("1") for f in row] for row in flips],
                    dtype=float)
    kernel = np.zeros((n, n))
    for x in range(n):
        for i in range(bits):
            flip = (1.0 - p) if (x >> i) & 1 else p   # the redrawn bit changes
            kernel[x, x ^ (1 << i)] = flip / bits
            kernel[x, x] += (1.0 - flip) / bits
    return MetricChain(points=tuple(format(x, f"0{bits}b") for x in range(n)),
                       dist=dist, kernel=kernel, origin_hint=0)


def random_graph_chain(rng, n_points=12, max_support=6):
    """Shortest-path metric of a random weighted graph (not a line metric),
    with kernel rows on ragged random supports of 1..max_support points."""
    weights = np.triu(rng.integers(1, 4, size=(n_points, n_points)).astype(float), 1)
    keep = np.triu(rng.random((n_points, n_points)) < 0.35, 1)
    keep[np.arange(n_points - 1), np.arange(1, n_points)] = True   # a spanning path
    graph = np.where(keep, weights, 0.0)
    dist = shortest_path(graph + graph.T, directed=False)
    kernel = np.zeros((n_points, n_points))
    for x in range(n_points):
        support = rng.choice(n_points, size=rng.integers(1, max_support + 1),
                             replace=False)
        w = rng.random(support.size) + 0.05
        kernel[x, support] = w / w.sum()
    return MetricChain(points=tuple(f"v{i}" for i in range(n_points)),
                       dist=dist, kernel=kernel)


def irregular_line_chain(rng, n_points=12, max_support=5):
    """Line chain on irregularly spaced points listed in shuffled order, with
    kernel rows on ragged random supports of 1..max_support points."""
    coords = rng.permutation(np.cumsum(rng.uniform(0.3, 2.0, n_points)))
    kernel = np.zeros((n_points, n_points))
    for x in range(n_points):
        support = rng.choice(n_points, size=rng.integers(1, max_support + 1),
                             replace=False)
        w = rng.random(support.size) + 0.05
        kernel[x, support] = w / w.sum()
    return line_chain(coords, kernel)


def rows_chain(chain, vectors):
    """A chain on `chain`'s metric whose first kernel rows are `vectors`.

    Poses transport between arbitrary probability vectors on `chain`'s points
    as W1 between kernel rows.  When there are more vectors than points,
    points are appended at distance max(dist) from every other point, which
    keeps a metric; they carry no mass, so W1 between the rows is W1 between
    the vectors.  The remaining rows are point masses.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = max(chain.n, len(vectors))
    dist = np.full((n, n), chain.dist.max())
    dist[:chain.n, :chain.n] = chain.dist
    np.fill_diagonal(dist, 0.0)
    kernel = np.eye(n)
    kernel[:len(vectors)] = 0.0
    kernel[:len(vectors), :chain.n] = vectors
    return MetricChain(points=chain.points + tuple(f"pad{i}" for i in range(n - chain.n)),
                       dist=dist, kernel=kernel)


def metric_chain(dist):
    """A chain on the given distance matrix with the identity kernel."""
    dist = np.asarray(dist, dtype=float)
    return MetricChain(points=tuple(str(i) for i in range(len(dist))),
                       dist=dist, kernel=np.eye(len(dist)))


def worst_triangle_violation(d):
    """max over (i, k, j) of d(i,j) - d(i,k) - d(k,j), by a loop over k."""
    worst = 0.0
    for k in range(len(d)):
        worst = max(worst, float((d - (d[:, k][:, None] + d[k, :][None, :])).max()))
    return worst


def floyd_warshall(d, eps):
    """Shortest paths over the pairs at distance <= eps (+1e-12), by Floyd-Warshall."""
    sp = np.where((d <= eps + 1e-12) & (d > 0), d, np.inf)
    np.fill_diagonal(sp, 0.0)
    for k in range(len(d)):
        sp = np.minimum(sp, sp[:, k][:, None] + sp[k, :][None, :])
    return sp
