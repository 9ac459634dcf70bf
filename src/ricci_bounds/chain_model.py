"""Finite metric spaces carrying Markov kernels, plus the example chain builders.

A MetricChain is the universal input object: an ordered point set, a full
distance matrix, and a row-stochastic transition kernel.  Chains on a subset
of the real line, built or loaded, also carry per-point coordinates, which
unlock the closed-form line transport used by the curvature sweep.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path
from scipy.special import ndtr

from .errors import ChainFormatError, ChainValidationError

ROW_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12
GEODESIC_TOL = 1e-9


@dataclass(frozen=True)
class MetricChain:
    """Finite point set with distances and a row-stochastic kernel.

    Attributes
    ----------
    points : tuple of labels, one per state (order fixes all indexing)
    dist : (n, n) symmetric distance matrix, zero exactly on the diagonal
    kernel : (n, n) row-stochastic transition matrix
    origin_hint : preferred origin x0 for curvature profiles, or None
    coords : real-line coordinates when the metric is a line metric, else None
    gaussian_variance : kernel variance declared by a Gaussian builder, else None
    """

    points: Tuple[str, ...]
    dist: np.ndarray
    kernel: np.ndarray
    origin_hint: Optional[int] = None
    coords: Optional[np.ndarray] = field(default=None)
    gaussian_variance: Optional[float] = None

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float)
        kernel = np.asarray(self.kernel, dtype=float)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "kernel", kernel)
        n = len(self.points)
        if dist.shape != (n, n) or kernel.shape != (n, n):
            raise ChainValidationError(
                f"expected ({n},{n}) matrices, got dist {dist.shape}, kernel {kernel.shape}")
        if not np.all(np.isfinite(dist)) or not np.all(np.isfinite(kernel)):
            raise ChainValidationError("dist/kernel entries must be finite")
        bad = np.unravel_index(np.argmax(np.abs(dist - dist.T)), dist.shape)
        if abs(dist[bad] - dist.T[bad]) > SYMMETRY_TOL:
            i, j = bad
            raise ChainValidationError(
                f"dist not symmetric: dist[{i}][{j}]={dist[i, j]!r} != dist[{j}][{i}]={dist[j, i]!r}")
        if np.any(np.diag(dist) != 0.0):
            i = int(np.nonzero(np.diag(dist))[0][0])
            raise ChainValidationError(f"dist diagonal must be exactly 0, dist[{i}][{i}]={dist[i, i]!r}")
        if np.any(dist < 0):
            raise ChainValidationError("negative distance entry")
        same = (dist == 0) & ~np.eye(n, dtype=bool)
        if same.any():
            i, j = np.argwhere(same)[0]
            raise ChainValidationError(
                f"distinct points {self.points[i]!r} and {self.points[j]!r} at distance 0")
        if np.any(kernel < 0):
            i, j = np.unravel_index(int(np.argmin(kernel)), kernel.shape)
            raise ChainValidationError(f"negative kernel entry kernel[{i}][{j}]={kernel[i, j]!r}")
        sums = kernel.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > ROW_SUM_TOL):
            i = int(np.argmax(off))
            raise ChainValidationError(
                f"kernel row {i} (point {self.points[i]!r}) sums to {sums[i]!r}, not 1")
        if self.origin_hint is not None and not (0 <= self.origin_hint < n):
            raise ChainValidationError(f"origin_hint {self.origin_hint} out of range")
        if self.coords is not None:
            coords = np.asarray(self.coords, dtype=float)
            if coords.shape != (n,):
                raise ChainValidationError("coords must have one entry per point")
            object.__setattr__(self, "coords", coords)
            coords.setflags(write=False)
        dist.setflags(write=False)
        kernel.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def check_triangle_inequality(self) -> None:
        """Prove the triangle inequality by shortest paths; raise on a violation.

        A path is a sum of real distances: one shorter than d(i, j) exposes a
        failing triangle at endpoint i, and shortest paths equal to d prove the
        inequality.  The graph of the smallest distance settles path metrics;
        others fall back to the complete graph, whose paths never exceed d.
        """
        d = self.dist
        if self.n < 3:
            return
        for t in (d[d > 0].min(), d.max()):
            excess = d - _shortest_paths(d, t)
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            if excess[i, j] > GEODESIC_TOL:
                slack = d[i][None, :] - d[i][:, None] - d
                k, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
                raise ChainValidationError(
                    f"triangle inequality violated by {slack[k, j]:.3e}: "
                    f"d({i},{j}) > d({i},{k}) + d({k},{j})")
            if np.all(excess >= -GEODESIC_TOL):
                return


@dataclass(frozen=True)
class GeodesicReport:
    epsilon: float
    is_geodesic: bool
    witness_failure: Optional[Tuple[int, int]] = None


def build_mmk_chain(n0: int, k: int, truncation: int) -> MetricChain:
    """Discrete-time M/M/k queue on {0..truncation} with d(i,j) = |i-j|.

    Interior rows: jump right with probability n0/(n0+k), stay with
    (k-n)_+/(n0+k), jump left with min(n,k)/(n0+k).  The last state's
    right-jump mass self-loops so the kernel stays stochastic; truncation
    must be chosen so the stationary mass out there is negligible.
    """
    if n0 <= 0:
        raise ValueError(f"n0 must be positive, got {n0}")
    if k <= n0:
        raise ValueError(f"need n0 < k, got n0={n0}, k={k}")
    if truncation < k:
        raise ValueError(f"truncation {truncation} must be >= k={k}")
    size = truncation + 1
    denom = n0 + k
    kernel = np.zeros((size, size))
    for n in range(size):
        up = n0 / denom
        stay = max(k - n, 0) / denom
        down = min(n, k) / denom
        if n > 0:
            kernel[n, n - 1] = down
        else:
            stay += down  # down mass is 0 at n=0 anyway
        if n < truncation:
            kernel[n, n + 1] = up
            kernel[n, n] = stay
        else:
            kernel[n, n] = stay + up  # boundary: right-jump mass self-loops
    coords = np.arange(size, dtype=float)
    dist = np.abs(coords[:, None] - coords[None, :])
    return MetricChain(points=tuple(str(i) for i in range(size)),
                       dist=dist, kernel=kernel, origin_hint=n0, coords=coords)


def build_discrete_ou_chain(alpha: float, grid_half_width: float,
                            grid_step: float) -> MetricChain:
    """Autoregressive Gaussian chain P_x = N((1-alpha)x, 1) on a uniform grid.

    Each row assigns to a grid point the Gaussian mass of its Voronoi cell on
    the line; the two outermost cells absorb the tails, so rows are
    row-stochastic by construction.  Records gaussian_variance = 1.
    """
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if grid_step > 1:
        raise ValueError(
            f"grid_step {grid_step} > 1 (kernel sd): discretization would "
            "dominate the curvature signal")
    m = int(round(grid_half_width / grid_step))
    if m < 1:
        raise ValueError("grid too small; increase grid_half_width")
    coords = np.arange(-m, m + 1) * grid_step
    size = coords.size
    cell_edges = (coords[:-1] + coords[1:]) / 2.0
    kernel = np.empty((size, size))
    for i, x in enumerate(coords):
        cdf = ndtr(cell_edges - (1.0 - alpha) * x)
        kernel[i] = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    dist = np.abs(coords[:, None] - coords[None, :])
    return MetricChain(points=tuple(f"{x:.10g}" for x in coords),
                       dist=dist, kernel=kernel, origin_hint=m,
                       coords=coords.astype(float), gaussian_variance=1.0)


def _reject_constant(token):
    raise ChainFormatError(f"non-finite number {token!r} not accepted")


def _infer_line_coords(dist: np.ndarray) -> Optional[np.ndarray]:
    """Return coordinates realizing dist on the real line, or None."""
    anchor = int(np.argmax(dist[0]))
    coords = dist[anchor].copy()
    if np.allclose(np.abs(coords[:, None] - coords[None, :]), dist, rtol=0, atol=1e-9):
        return coords
    return None


def load_chain(path) -> MetricChain:
    """Load and fully validate a chain-spec JSON file.

    Expected fields: `points` (array of labels), `dist` and `kernel`
    (row-major arrays of arrays), optional `origin` (label or index).
    NaN/Inf are rejected; all invariants including the triangle inequality
    are checked on load.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ChainFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ChainFormatError(f"{path}: top-level value must be an object")
    for key in ("points", "dist", "kernel"):
        if key not in doc:
            raise ChainFormatError(f"{path}: missing field {key!r}")
    points = tuple(str(p) for p in doc["points"])
    n = len(points)
    try:
        dist = np.array(doc["dist"], dtype=float)
        kernel = np.array(doc["kernel"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChainFormatError(f"{path}: dist/kernel must be numeric matrices: {exc}") from exc
    if dist.shape != (n, n):
        raise ChainFormatError(f"{path}: dist has shape {dist.shape}, expected ({n},{n})")
    if kernel.shape != (n, n):
        raise ChainFormatError(f"{path}: kernel has shape {kernel.shape}, expected ({n},{n})")
    origin = doc.get("origin")
    if origin is not None:
        if isinstance(origin, str):
            if origin not in points:
                raise ChainFormatError(f"{path}: origin label {origin!r} not among points")
            origin = points.index(origin)
        else:
            origin = int(origin)
    chain = MetricChain(points=points, dist=dist, kernel=kernel,
                        origin_hint=origin, coords=_infer_line_coords(dist))
    chain.check_triangle_inequality()
    return chain


def _shortest_paths(d: np.ndarray, t: float) -> np.ndarray:
    """All-pairs shortest paths over the pairs with 0 < d <= t (d = 0 only on the diagonal)."""
    return shortest_path(csr_array(np.where(d <= t, d, 0.0)), directed=False)


def check_epsilon_geodesic(chain: MetricChain, epsilon: float) -> GeodesicReport:
    """Decide whether every distance is realized by steps of length <= epsilon.

    True iff for every pair the shortest-path distance in the graph whose
    edges are point pairs at distance <= epsilon (edge weight = distance)
    equals d(x, y) within 1e-9.  On a line metric that holds iff no gap
    between coordinate-order neighbours exceeds epsilon; the witness of a
    failure is then the pair across the largest gap.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = chain.dist
    if chain.coords is not None:
        order = np.argsort(chain.coords, kind="stable")
        gaps = d[order[:-1], order[1:]]
        if gaps.max(initial=0.0) <= epsilon + 1e-12:
            return GeodesicReport(epsilon=epsilon, is_geodesic=True)
        k = int(np.argmax(gaps))
        return GeodesicReport(epsilon=epsilon, is_geodesic=False,
                              witness_failure=(int(order[k]), int(order[k + 1])))
    defect = np.abs(_shortest_paths(d, epsilon + 1e-12) - d)
    i, j = np.unravel_index(int(np.argmax(defect)), defect.shape)
    if defect[i, j] <= GEODESIC_TOL:
        return GeodesicReport(epsilon=epsilon, is_geodesic=True)
    return GeodesicReport(epsilon=epsilon, is_geodesic=False,
                          witness_failure=(int(i), int(j)))
