"""Exact Wasserstein-1 distances between kernel rows.

Two independent algorithms are kept permanently: the closed-form CDF sum for
weight vectors on the line (`w1_line`) and an exact min-cost transportation
LP between kernel rows (`w1_flow_batch`), certified in-process by a
1-Lipschitz Kantorovich potential recovered from the LP duals.  Every
downstream quantity depends on W1, so the two routes cross-check each other.

The LP route solves each group of pairs in two passes because scipy's HiGHS
wrapper spends about 2 us of Python per LP column, more than HiGHS itself on
these small blocks.  The first gives each pair only its nearest-neighbour and
staircase columns (9 of the 81 per neighbouring pair on {0,1}^9, where the
optimal coupling moves every unit of mass to a neighbour); the
certificate, which checks the potential on every point, accepts it only
where it is optimal over all columns, and the group's pairs it rejects are
solved again on all of theirs (a sparse arc set proved optimal by dual
feasibility on the others, as in Schmitzer, J. Math. Imaging Vis. 2016).
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csc_array, csr_array

from .chain_model import DIST_TOL, ROW_SUM_TOL, MetricChain
from .errors import TransportError

CERT_TOL = 1e-9
# Full columns per group of consecutive LP pairs: one scan for their sparse
# columns, one LP on those and one on all columns of the pairs it leaves
# uncertified.  {0,1}^9 at eps = 1, median of 7 `_local_curvature_lp` calls
# (3 processes, 2-core host), and peak ru_maxrss (99 MB after loading):
#   columns per group       2^13              2^14              2^15
#   20,736 sparse columns   0.26-0.29 s, 99   0.25-0.29 s, 99   0.23-0.30 s, 102 MB
#   186,624, all columns    0.77-0.86 s, 103  0.70-0.90 s, 111  0.88-0.95 s, 129 MB
LP_GROUP_VARS = 1 << 14


def w1_line(mu, nu, coords) -> float:
    """Exact W1 between weight vectors on the line points `coords`: |F_mu - F_nu| over the gaps."""
    order = np.argsort(coords, kind="stable")
    cdf_gap = np.cumsum((np.asarray(mu, dtype=float) - nu)[order])
    return float(np.abs(cdf_gap[:-1]) @ np.diff(np.asarray(coords, dtype=float)[order]))


def w1_flow_batch(chain: MetricChain, xs, ys):
    """Certified exact W1(P_x, P_y) for the row-index pairs (xs[k], ys[k]).

    Returns three arrays, one entry per pair: W1, the duality gap and the
    Lipschitz defect.  W1 depends only on D = K[xs] - K[ys]
    (Kantorovich-Rubinstein), built once as a CSR array of the rows the pairs
    read: each pair's LP moves D's positive part (its sources) onto its
    negative part (its sinks) at costs d(i, j), and an empty D (identical
    rows) is 0 with no LP.

    Each pair is solved first on a sparse set of columns: each source's
    nearest sinks, each sink's nearest sources and the north-west-corner
    staircase of its block, which carries a feasible plan up to ROW_SUM_TOL
    of mass per staircase arc it leaves out.  The certificate judges that
    solve as it judges any other.  Its potential is 1-Lipschitz on all of
    the block's points, so its dual value bounds W1 from below over every
    plan, and a gap within CERT_TOL proves the sparse plan optimal among all
    plans.  Pairs that fail are solved once more on all their columns, and
    that result is final.  Consecutive pairs form groups of about
    LP_GROUP_VARS full columns; each group is scanned once for its sparse
    columns, solved on them as one block-diagonal LP (one HiGHS call), and
    its rejected pairs as one more.  Each block's slice of
    the solution and of the duals is an optimum of its pair's own LP.  Each
    LP is certified in one vectorized pass that still checks every pair on
    its own, and a pair whose final primal defect, gap or Lipschitz defect
    exceeds CERT_TOL raises TransportError naming its index in the call.
    """
    xs, ys = np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp)
    outside = (np.minimum(xs, ys) < 0) | (np.maximum(xs, ys) >= chain.n)
    if outside.any():
        raise TransportError(f"pair {int(np.argmax(outside))}: row index outside the chain")
    rows, read = np.unique(np.concatenate([xs, ys]), return_inverse=True)
    kernel = csr_array(chain.kernel[rows] if rows.size < chain.n else chain.kernel)
    diff = kernel[read[:xs.size]] - kernel[read[xs.size:]]
    diff.eliminate_zeros()
    starts, sizes = diff.indptr[:-1], np.diff(diff.indptr)
    row = np.repeat(np.arange(xs.size), sizes)
    # each pair's entries, sources first: its LP rows are these, in this order
    order = np.lexsort((diff.data < 0, row))
    points, mass = diff.indices[order], diff.data[order]
    n_src = np.bincount(row[mass > 0], minlength=xs.size)
    n_var = n_src * (sizes - n_src)

    w1, gap, lip, primal = (np.zeros(xs.size) for _ in range(4))
    # a difference with one side only (rows whose sums differ by rounding)
    # has no plan: its unmatched mass is its primal defect
    no_lp = (n_var == 0)[row]
    np.maximum.at(primal, row[no_lp], np.abs(mass[no_lp]))
    lp = np.flatnonzero(n_var)
    # a pair joins the group in which its running column count ends
    group = np.cumsum(n_var[lp]) // LP_GROUP_VARS
    for g in np.unique(group):
        k = lp[group == g]
        w1[k], gap[k], lip[k], primal[k] = _solve_lp(
            chain, points, mass, starts[k], sizes[k], n_src[k], k,
            *_sparse_columns(chain, points, mass, starts[k], n_src[k], sizes[k] - n_src[k]))
        redo = k[~_certified(gap[k], lip[k], primal[k])]
        if redo.size:
            w1[redo], gap[redo], lip[redo], primal[redo] = _solve_lp(
                chain, points, mass, starts[redo], sizes[redo], n_src[redo], redo,
                _ragged(n_var[redo]), n_var[redo])
    bad = np.flatnonzero(~_certified(gap, lip, primal))
    if bad.size:
        k = bad[0]
        raise TransportError(
            f"pair {k}: duality certificate failed: gap={gap[k]:.3e}, "
            f"lipschitz defect={lip[k]:.3e}, primal defect={primal[k]:.3e}")
    return w1, gap, lip


def _certified(gap, lip, primal):
    # written so that a NaN fails too
    return (gap <= CERT_TOL) & (lip <= CERT_TOL) & (primal <= CERT_TOL)


def _ragged(counts):
    """0..counts[k]-1 for each k, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _sparse_columns(chain, points, mass, starts, n_src, n_snk):
    """Each pair's first-pass columns and their number per pair.

    Pair k's sources are points[starts[k]:][:n_src[k]], its sinks the n_snk[k]
    entries after them, and column i * n_snk[k] + j moves source i to sink j.
    Kept: each source's nearest sinks and each sink's nearest sources (ties
    within DIST_TOL included), and the arcs of the block's north-west-corner
    staircase that carry more than ROW_SUM_TOL of its share, so that shares
    equal up to rounding add no arc across the sliver between them.
    """
    lo, hi = _shares(np.abs(mass), np.concatenate([starts, starts + n_src]),
                     np.concatenate([n_src, n_snk]))
    pair = np.repeat(np.arange(n_src.size), n_src * n_snk)
    col = _ragged(n_src * n_snk)
    src = starts[pair] + col // n_snk[pair]
    snk = starts[pair] + n_src[pair] + col % n_snk[pair]
    cost = chain.dist[points[src], points[snk]]
    nearest = np.full(points.size, np.inf)   # distance to the nearest point across
    np.minimum.at(nearest, src, cost)
    np.minimum.at(nearest, snk, cost)
    keep = ((cost <= nearest[src] + DIST_TOL) | (cost <= nearest[snk] + DIST_TOL)
            | (np.minimum(hi[src], hi[snk]) - np.maximum(lo[src], lo[snk]) > ROW_SUM_TOL))
    return col[keep], np.bincount(pair[keep], minlength=n_src.size)


def _shares(weight, first, count):
    """Each entry of each group as the interval (lo, hi] of its group's
    cumulative share of weight; group g is weight[first[g]:][:count[g]].

    A source's and a sink's intervals overlap with positive length exactly
    on the block's north-west-corner staircase, which carries the plan that
    moves the overlap's length times the supply, whatever the two sums: at
    most m + n - 1 arcs, and intervals that end together add no arc.  Each
    group is summed on its own, so that equal groups give equal bits.
    """
    hi = np.zeros_like(weight)
    for c in np.unique(count):
        at = first[count == c][:, None] + np.arange(c)
        cum = np.cumsum(weight[at], axis=1)
        hi[at] = cum / cum[:, -1:]
    lo = np.zeros_like(hi)
    lo[1:] = hi[:-1]
    lo[first] = 0.0
    return lo, hi


def _solve_lp(chain, points, mass, starts, sizes, n_src, batch, local, n_col):
    """(W1, duality gap, Lipschitz defect, primal defect) of the given pairs
    from one block-diagonal LP.  Pair j's rows are its entries of `points`,
    and its columns its n_col[j] entries of `local`, each i * n_snk + j for
    the arc from its source i to its sink j."""
    r0 = np.cumsum(sizes) - sizes               # each block's first row
    entries = np.arange(sizes.sum()) + np.repeat(starts - r0, sizes)
    pts, rhs = points[entries], mass[entries]
    width = np.repeat(sizes - n_src, n_col)
    v0 = np.cumsum(n_col) - n_col               # each block's first column
    src_row = np.repeat(r0, n_col) + local // width
    snk_row = np.repeat(r0 + n_src, n_col) + local % width
    cost = chain.dist[pts[src_row], pts[snk_row]]
    # every variable sits in exactly two rows: its source and its sink
    rows = np.column_stack([src_row, snk_row]).ravel()
    a_eq = csc_array((np.ones(2 * local.size), rows, np.arange(0, 2 * local.size + 1, 2)),
                     shape=(pts.size, local.size))
    b_eq = np.abs(rhs)
    # imported here: scipy.optimize takes about a quarter of the CLI's import
    # time, and line chains never solve an LP
    from scipy.optimize import linprog
    # presolve only adds time on these LPs (about 2x on {0,1}^9 batches)
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options={"presolve": False})
    if res.status != 0:
        raise TransportError(
            f"transport LP failed for pairs {batch[0]}..{batch[-1]}: {res.message}")
    primal = np.maximum(np.maximum.reduceat(np.abs(a_eq @ res.x - b_eq), r0),
                        -np.minimum.reduceat(res.x, v0))
    value = np.add.reduceat(cost * res.x, v0)

    # c-transform of the sink duals on each block's points, then the largest
    # phi(a) - phi(b) - d(a, b) over its point pairs; blocks of one size share
    # one gather of their s x s distances; a source's dual has no part in it
    neg_dual = np.where(rhs < 0, -res.eqlin.marginals, np.inf)
    phi, lip = np.empty(pts.size), np.empty(batch.size)
    for s in np.unique(sizes):
        group = np.flatnonzero(sizes == s)
        at = r0[group][:, None] + np.arange(s)
        p = pts[at]
        d = chain.dist[p[:, :, None], p[:, None, :]]
        phi_s = np.min(d + neg_dual[at][:, None, :], axis=2)
        np.subtract(phi_s[:, :, None], d, out=d)
        d -= phi_s[:, None, :]
        phi[at], lip[group] = phi_s, d.max(axis=(1, 2))
    dual = np.add.reduceat(phi * rhs, r0)
    return value, np.abs(value - dual), lip, primal


def w1_flow(chain: MetricChain, x: int, y: int) -> float:
    """Certified exact W1(P_x, P_y): a batch of one."""
    return float(w1_flow_batch(chain, [x], [y])[0][0])


def w1_to_point(chain: MetricChain, row: int, target: int) -> float:
    """W1(P_row, delta_target): the expected distance to the target point."""
    return float(chain.kernel[row] @ chain.dist[:, target])
