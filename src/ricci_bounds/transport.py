"""Exact Wasserstein-1 distances between finitely supported measures.

Two independent algorithms are kept permanently: the closed-form CDF sum for
line-embedded measures (`w1_line`) and an exact min-cost transportation LP
(`w1_flow`) whose optimality is certified in-process by a 1-Lipschitz
Kantorovich potential recovered from the LP duals.  Many pairs are solved
together as one block-diagonal LP (`w1_flow_batch`) and still certified pair
by pair.  Every downstream quantity depends on W1, so the two routes
cross-check each other.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .chain_model import ROW_SUM_TOL, MetricChain
from .errors import TransportError

CERT_TOL = 1e-9
# Transport variables per block-diagonal LP.  HiGHS's memory grows by about
# 1.4 KB per variable, so batches are cut by variables, not by pairs.  3200 is
# 32 pairs of 10-point kernel rows on {0,1}^9, where it raised the process's
# peak RSS by 0.4 MB over single-pair solves.
LP_BATCH_VARS = 3200


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure supported on chain point indices."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.intp)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        if support.ndim != 1 or support.shape != weights.shape:
            raise TransportError("support and weights must be equal-length 1-d arrays")
        if np.unique(support).size != support.size:
            raise TransportError("support indices must be distinct")
        if np.any(weights < 0):
            raise TransportError("negative weight")
        total = float(weights.sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise TransportError(f"weights sum to {total!r}, not 1")
        support.setflags(write=False)
        weights.setflags(write=False)

    @classmethod
    def from_vector(cls, vec) -> "DiscreteMeasure":
        vec = np.asarray(vec, dtype=float)
        idx = np.nonzero(vec)[0]
        return cls(support=idx, weights=vec[idx])


@dataclass(frozen=True)
class TransportCertificate:
    value: float
    plan: np.ndarray           # optimal coupling, shape (len(mu), len(nu))
    potential: np.ndarray      # 1-Lipschitz dual potential on the union support
    union_support: np.ndarray  # point indices the potential is defined on
    duality_gap: float
    lipschitz_defect: float


def w1_line(mu: DiscreteMeasure, nu: DiscreteMeasure, coords) -> float:
    """Exact W1 on the real line: finite sum of |F_mu - F_nu| over breakpoints."""
    coords = np.asarray(coords, dtype=float)
    pos = np.concatenate([coords[mu.support], coords[nu.support]])
    wgt = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(pos, kind="stable")
    pos, wgt = pos[order], wgt[order]
    cdf_gap = np.cumsum(wgt)[:-1]
    return float(np.abs(cdf_gap) @ np.diff(pos))


def _identical(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    if mu.support.size != nu.support.size:
        return False
    a = np.argsort(mu.support)
    b = np.argsort(nu.support)
    return (np.array_equal(mu.support[a], nu.support[b])
            and np.array_equal(mu.weights[a], nu.weights[b]))


def _certify(k: int, mu: DiscreteMeasure, nu: DiscreteMeasure, union: np.ndarray,
             value: float, plan: np.ndarray, v_dual: np.ndarray, primal: float,
             chain: MetricChain) -> TransportCertificate:
    """Turn one block's primal value and nu-side duals into a checked certificate.

    `primal` is the plan's largest marginal residual or negative mass: only a
    plan that couples mu and nu makes `value` an upper bound on W1."""
    # c-transform of the nu-side duals: 1-Lipschitz by the triangle inequality
    d_to_nu = chain.dist[np.ix_(union, nu.support)]
    potential = np.min(d_to_nu - v_dual[None, :], axis=1)

    mu_pos = np.searchsorted(union, mu.support)
    nu_pos = np.searchsorted(union, nu.support)
    dual_value = float(potential[mu_pos] @ mu.weights - potential[nu_pos] @ nu.weights)
    gap = abs(value - dual_value)
    lip = float(np.max(np.abs(potential[:, None] - potential[None, :])
                       - chain.dist[np.ix_(union, union)]))
    if gap > CERT_TOL or lip > CERT_TOL or primal > CERT_TOL:
        raise TransportError(
            f"pair {k}: duality certificate failed: gap={gap:.3e}, "
            f"lipschitz defect={lip:.3e}, primal defect={primal:.3e}")
    return TransportCertificate(value=value, plan=plan, potential=potential,
                                union_support=union, duality_gap=gap,
                                lipschitz_defect=max(lip, 0.0))


def w1_flow_batch(pairs, chain: MetricChain) -> list:
    """Certified exact W1 for a list of (mu, nu) pairs, in few LP solves.

    The pairs' bipartite min-cost flows (costs d(i, j)) share no variable and
    no constraint, so consecutive pairs are laid out as one sparse
    block-diagonal LP of about LP_BATCH_VARS variables and solved by a single
    HiGHS call; each block's slice of the primal solution and of the equality
    duals is an optimum of that pair's own LP.  Every block is then certified
    on its own: its nu-side duals become a genuine 1-Lipschitz potential on
    the pair's union support via a c-transform, and the plan's primal
    defect, the duality gap and the Lipschitz defect are checked against
    CERT_TOL.  A block that fails raises
    TransportError naming its pair's index in `pairs`.  Identical measures
    skip the LP with the exact zero certificate.  Returns one
    TransportCertificate per pair, in order.
    """
    pairs = list(pairs)
    certs = [None] * len(pairs)
    # a pair joins the LP in which its running variable count ends
    n_vars = np.cumsum([mu.support.size * nu.support.size for mu, nu in pairs])
    cuts = np.flatnonzero(np.diff(n_vars // LP_BATCH_VARS)) + 1
    for batch in np.split(np.arange(len(pairs)), cuts):
        _solve_lp(pairs, batch.tolist(), chain, certs)
    return certs


def _solve_lp(pairs, batch, chain: MetricChain, certs: list) -> None:
    """Fill certs[k] for every pair index k in batch, with one block-diagonal LP."""
    blocks = []                       # (pair index, mu, nu, union, var offset, row offset)
    costs, mu_rows, nu_rows, rhs = [], [], [], []
    n_var = n_row = 0
    for k in batch:
        mu, nu = pairs[k]
        if np.any(mu.support >= chain.n) or np.any(nu.support >= chain.n):
            raise TransportError(f"pair {k}: support index outside the chain")
        union = np.unique(np.concatenate([mu.support, nu.support]))
        if _identical(mu, nu):
            certs[k] = TransportCertificate(
                value=0.0, plan=np.diag(mu.weights),
                potential=np.zeros(union.size), union_support=union,
                duality_gap=0.0, lipschitz_defect=0.0)
            continue
        m, n = mu.support.size, nu.support.size
        # variable i*n + j is the mass sent from mu.support[i] to nu.support[j]
        costs.append(chain.dist[np.ix_(mu.support, nu.support)].ravel())
        mu_rows.append(n_row + np.repeat(np.arange(m), n))
        nu_rows.append(n_row + m + np.tile(np.arange(n), m))
        rhs += [mu.weights, nu.weights]
        blocks.append((k, mu, nu, union, n_var, n_row))
        n_var += m * n
        n_row += m + n
    if not blocks:
        return

    # every variable sits in exactly two rows: its mu-marginal and its nu-marginal
    rows = np.column_stack([np.concatenate(mu_rows), np.concatenate(nu_rows)]).ravel()
    a_eq = csc_array((np.ones(2 * n_var), rows, np.arange(0, 2 * n_var + 1, 2)),
                     shape=(n_row, n_var))
    cost = np.concatenate(costs)
    b_eq = np.concatenate(rhs)
    # presolve only adds time on these LPs (about 2x on {0,1}^9 batches)
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options={"presolve": False})
    if res.status != 0:
        raise TransportError(
            f"transport LP failed for pairs {blocks[0][0]}..{blocks[-1][0]}: "
            f"{res.message}")
    duals = res.eqlin.marginals
    v_starts, r_starts = [b[4] for b in blocks], [b[5] for b in blocks]
    primal = np.maximum(np.maximum.reduceat(np.abs(a_eq @ res.x - b_eq), r_starts),
                        -np.minimum.reduceat(res.x, v_starts))
    for (k, mu, nu, union, v0, r0), defect in zip(blocks, primal):
        m, n = mu.support.size, nu.support.size
        x = res.x[v0:v0 + m * n]
        certs[k] = _certify(k, mu, nu, union, float(cost[v0:v0 + m * n] @ x),
                            x.reshape(m, n), duals[r0 + m:r0 + m + n],
                            float(defect), chain)


def w1_flow(mu: DiscreteMeasure, nu: DiscreteMeasure, chain: MetricChain) -> float:
    """Certified exact W1 between two measures on a chain's metric: a batch of one."""
    return w1_flow_batch([(mu, nu)], chain)[0].value


def w1_to_point(chain: MetricChain, row: int, target: int) -> float:
    """W1(P_row, delta_target): the expected distance to the target point."""
    return float(chain.kernel[row] @ chain.dist[:, target])
