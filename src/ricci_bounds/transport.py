"""Exact Wasserstein-1 distances between kernel rows.

Two independent algorithms are kept permanently: the closed-form CDF sum for
weight vectors on the line (`w1_line`) and an exact min-cost transportation
LP between kernel rows (`w1_flow_batch`), certified in-process by a
1-Lipschitz Kantorovich potential recovered from the LP duals.  Every
downstream quantity depends on W1, so the two routes cross-check each other.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array, csr_array

from .chain_model import MetricChain
from .errors import TransportError

CERT_TOL = 1e-9
# Transport variables per block-diagonal LP.  HiGHS's memory grows by about
# 1.4 KB per variable, so batches are cut by variables, not by pairs.  Sized,
# and not re-measured since, on {0,1}^9 when its blocks were 10 x 10 kernel
# rows (now 9 x 9 differences): 0.4 MB of peak RSS over single-pair solves.
LP_BATCH_VARS = 3200


def w1_line(mu, nu, coords) -> float:
    """Exact W1 between weight vectors on the line points `coords`: |F_mu - F_nu| over the gaps."""
    order = np.argsort(coords, kind="stable")
    cdf_gap = np.cumsum((np.asarray(mu, dtype=float) - nu)[order])
    return float(np.abs(cdf_gap[:-1]) @ np.diff(np.asarray(coords, dtype=float)[order]))


def w1_flow_batch(chain: MetricChain, xs, ys):
    """Certified exact W1(P_x, P_y) for the row-index pairs (xs[k], ys[k]).

    Returns three arrays, one entry per pair: W1, the duality gap and the
    Lipschitz defect.  W1 depends only on D = K[xs] - K[ys]
    (Kantorovich-Rubinstein), built once as a CSR array: each pair's LP moves
    D's positive part (its sources) onto its negative part (its sinks) at
    costs d(i, j), and an empty D (identical rows) is 0 with no LP.
    Consecutive pairs form one block-diagonal LP of about LP_BATCH_VARS
    variables and one HiGHS call; each block's slice of the solution and of
    the duals is an optimum of its pair's own LP.  Each LP is certified in
    one vectorized pass that still checks every pair on its own, and a pair
    whose primal defect, gap or Lipschitz defect exceeds CERT_TOL raises
    TransportError naming its index in the call.
    """
    xs, ys = np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp)
    outside = (np.minimum(xs, ys) < 0) | (np.maximum(xs, ys) >= chain.n)
    if outside.any():
        raise TransportError(f"pair {int(np.argmax(outside))}: row index outside the chain")
    kernel = csr_array(chain.kernel)
    diff = kernel[xs] - kernel[ys]
    diff.eliminate_zeros()
    sizes = np.diff(diff.indptr)
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
    # a pair joins the LP in which its running variable count ends
    cuts = np.flatnonzero(np.diff(np.cumsum(n_var) // LP_BATCH_VARS)) + 1
    for batch in np.split(np.arange(xs.size), cuts):
        batch = batch[n_var[batch] > 0]
        if batch.size:
            w1[batch], gap[batch], lip[batch], primal[batch] = _solve_lp(
                chain, points, mass, diff.indptr[batch], sizes[batch], n_src[batch], batch)
    # written so that a NaN fails too
    bad = np.flatnonzero(~((gap <= CERT_TOL) & (lip <= CERT_TOL) & (primal <= CERT_TOL)))
    if bad.size:
        k = bad[0]
        raise TransportError(
            f"pair {k}: duality certificate failed: gap={gap[k]:.3e}, "
            f"lipschitz defect={lip[k]:.3e}, primal defect={primal[k]:.3e}")
    return w1, gap, lip


def _solve_lp(chain, points, mass, starts, sizes, n_src, batch):
    """(W1, duality gap, Lipschitz defect, primal defect) of the given pairs
    from one block-diagonal LP; pair j's rows are its entries of `points`."""
    r0 = np.cumsum(sizes) - sizes               # each block's first row
    entries = np.arange(sizes.sum()) + np.repeat(starts - r0, sizes)
    pts, rhs = points[entries], mass[entries]
    n_snk = sizes - n_src
    nv = n_src * n_snk
    v0 = np.cumsum(nv) - nv                     # each block's first variable
    # variable v0 + i*n_snk + j sends mass from source i to sink j
    local = np.arange(nv.sum()) - np.repeat(v0, nv)
    width = np.repeat(n_snk, nv)
    src_row = np.repeat(r0, nv) + local // width
    snk_row = np.repeat(r0 + n_src, nv) + local % width
    cost = chain.dist[pts[src_row], pts[snk_row]]
    # every variable sits in exactly two rows: its source and its sink
    rows = np.column_stack([src_row, snk_row]).ravel()
    a_eq = csc_array((np.ones(2 * local.size), rows, np.arange(0, 2 * local.size + 1, 2)),
                     shape=(pts.size, local.size))
    b_eq = np.abs(rhs)
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
