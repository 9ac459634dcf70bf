"""Finite metric spaces carrying Markov kernels, plus the example chain builders.

A MetricChain is the universal input object: an ordered point set, a full
distance matrix, and a row-stochastic transition kernel.  Chains on a subset
of the real line, given by coordinates or by a line-metric distance matrix,
also carry per-point coordinates, which unlock the closed-form line
transport used by the curvature sweep.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path
from scipy.special import ndtr

from .errors import ChainFormatError, ChainValidationError

# Masses within this of 1 sum to 1: every kernel row, and so every measure W1 moves.
ROW_SUM_TOL = 1e-12
GEODESIC_TOL = 1e-9
# Distances closer than this are equal.  The symmetry check and every "within
# eps" test share it, so the eps-geodesic check and the curvature ball agree on
# which pairs are near.
DIST_TOL = 1e-12
# Most states a builder makes: its dist and kernel are dense n x n float64
# matrices, 1.02 GB together at 8000 states.
MAX_DENSE_STATES = 8000


@dataclass(frozen=True, kw_only=True)
class MetricChain:
    """Finite point set with distances and a row-stochastic kernel.

    Attributes (the metric is given once, as `dist` or as `coords`)
    ----------
    points : tuple of labels, one per state (order fixes all indexing)
    dist : (n, n) symmetric distance matrix, zero exactly on the diagonal;
        filled in place as |coords[i] - coords[j]| when coords are given
    kernel : (n, n) row-stochastic transition matrix
    origin_hint : preferred origin x0 for curvature profiles, or None
    coords : real-line coordinates realizing dist within GEODESIC_TOL when the
        metric is a line metric (inferred from a given dist), else None
    gaussian_variance : kernel variance declared by a Gaussian builder, else None
    """

    points: Tuple[str, ...]
    dist: Optional[np.ndarray] = None
    kernel: np.ndarray
    origin_hint: Optional[int] = None
    coords: Optional[np.ndarray] = None
    gaussian_variance: Optional[float] = None

    def __post_init__(self):
        if (self.dist is None) == (self.coords is None):
            raise ChainValidationError(
                "give the metric once: line coords or dist, not both or neither")
        n = len(self.points)
        coords = self.coords
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.shape != (n,):
                raise ChainValidationError("coords must have one entry per point")
            dist = np.subtract.outer(coords, coords)
            np.abs(dist, out=dist)
        else:
            dist = np.asarray(self.dist, dtype=float)
        kernel = np.asarray(self.kernel, dtype=float)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "kernel", kernel)
        if dist.shape != (n, n) or kernel.shape != (n, n):
            raise ChainValidationError(
                f"expected ({n},{n}) matrices, got dist {dist.shape}, kernel {kernel.shape}")
        # Reductions and row blocks of about 2^19 entries copy no n x n matrix;
        # only a failed check searches for its witness.  min/max propagate NaN.
        if not np.all(np.isfinite([dist.min(), dist.max(), kernel.min(), kernel.max()])):
            raise ChainValidationError("dist/kernel entries must be finite")
        rows = max(1, (1 << 19) // n)
        for r in range(0, n, rows):
            block = dist[r:r + rows] - dist[:, r:r + rows].T
            if np.abs(block, out=block).max() > DIST_TOL:
                i, j = np.unravel_index(np.argmax(np.abs(dist - dist.T)), dist.shape)
                raise ChainValidationError(
                    f"dist not symmetric: dist[{i}][{j}]={dist[i, j]!r} != dist[{j}][{i}]={dist[j, i]!r}")
        if np.any(np.diag(dist) != 0.0):
            i = int(np.nonzero(np.diag(dist))[0][0])
            raise ChainValidationError(f"dist diagonal must be exactly 0, dist[{i}][{i}]={dist[i, i]!r}")
        if dist.min() < 0:
            raise ChainValidationError("negative distance entry")
        # the diagonal is exactly 0, so a zero more means two points coincide
        if np.count_nonzero(dist) < n * (n - 1):
            i, j = np.argwhere((dist == 0) & ~np.eye(n, dtype=bool))[0]
            raise ChainValidationError(
                f"distinct points {self.points[i]!r} and {self.points[j]!r} at distance 0")
        if kernel.min() < 0:
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
        if coords is None:
            coords = _infer_line_coords(dist)
        if coords is not None:
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


def _check_dense_size(size: int) -> None:
    if size > MAX_DENSE_STATES:
        raise ValueError(
            f"{size} states exceed the dense-chain budget MAX_DENSE_STATES = "
            f"{MAX_DENSE_STATES} (two {size} x {size} float64 matrices would "
            f"take {16 * size * size / 1e9:.3g} GB)")


def mmk_rates(n0: int, k: int, truncation: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The M/M/k kernel on {0..truncation} as its three diagonals (up, stay, down).

    up[n] = n0/(n0+k) is the jump n -> n+1, down[n] = min(n+1, k)/(n0+k) the
    jump n+1 -> n and stay[n] = (k-n)_+/(n0+k); the last state's right-jump
    mass self-loops, so truncation must leave negligible stationary mass there.
    """
    if n0 <= 0:
        raise ValueError(f"n0 must be positive, got {n0}")
    if k <= n0:
        raise ValueError(f"need n0 < k, got n0={n0}, k={k}")
    if truncation < k:
        raise ValueError(f"truncation {truncation} must be >= k={k}")
    size = truncation + 1
    _check_dense_size(size)
    denom = n0 + k
    up = np.full(truncation, n0 / denom)
    stay = np.maximum(k - np.arange(size), 0) / denom
    stay[-1] += n0 / denom  # boundary: right-jump mass self-loops
    down = np.minimum(np.arange(1, size), k) / denom
    return up, stay, down


def build_mmk_chain(n0: int, k: int, truncation: int) -> MetricChain:
    """Discrete-time M/M/k queue on {0..truncation} with d(i,j) = |i-j|,
    its kernel the three diagonals of `mmk_rates`."""
    up, stay, down = mmk_rates(n0, k, truncation)
    size = truncation + 1
    kernel = np.zeros((size, size))
    idx = np.arange(size)
    kernel[idx, idx] = stay
    kernel[idx[:-1], idx[1:]] = up
    kernel[idx[1:], idx[:-1]] = down
    return MetricChain(points=tuple(str(i) for i in range(size)),
                       kernel=kernel, origin_hint=n0, coords=idx.astype(float))


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
    _check_dense_size(2 * m + 1)
    coords = np.arange(-m, m + 1) * grid_step
    size = coords.size
    cell_edges = (coords[:-1] + coords[1:]) / 2.0
    kernel = np.empty((size, size))
    for i, x in enumerate(coords):
        cdf = ndtr(cell_edges - (1.0 - alpha) * x)
        kernel[i] = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    return MetricChain(points=tuple(f"{x:.10g}" for x in coords),
                       kernel=kernel, origin_hint=m,
                       coords=coords, gaussian_variance=1.0)


def _reject_constant(token):
    raise ChainFormatError(f"non-finite number {token!r} not accepted")


def _infer_line_coords(dist: np.ndarray) -> Optional[np.ndarray]:
    """Coordinates realizing dist on the real line within GEODESIC_TOL, or None.

    The candidate is the row of the point farthest from point 0.  It is
    checked in row blocks of about 2^19 entries, so no n x n matrix is
    copied, and a metric that is no line metric stops at the first block
    that fails (NaN fails).
    """
    coords = dist[int(np.argmax(dist[0]))].copy()
    n = coords.size
    rows = max(1, (1 << 19) // n)
    for r in range(0, n, rows):
        block = np.subtract.outer(coords[r:r + rows], coords)
        np.abs(block, out=block)
        block -= dist[r:r + rows]
        np.abs(block, out=block)
        if not block.max() <= GEODESIC_TOL:
            return None
    return coords


def load_chain(path) -> MetricChain:
    """Load and fully validate a chain-spec JSON file.

    Expected fields: `points` (array of distinct labels), `dist` and `kernel`
    (row-major arrays of arrays), optional `origin` (a label, or an integer
    index).  NaN/Inf are rejected; all invariants including the triangle
    inequality are checked on load.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ChainFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ChainFormatError(f"{path}: cannot read: {exc.strerror}") from exc
    if not isinstance(doc, dict):
        raise ChainFormatError(f"{path}: top-level value must be an object")
    for key in ("points", "dist", "kernel"):
        if key not in doc:
            raise ChainFormatError(f"{path}: missing field {key!r}")
    if not isinstance(doc["points"], list):
        raise ChainFormatError(f"{path}: points must be an array of labels")
    points = tuple(str(p) for p in doc["points"])
    if len(set(points)) != len(points):
        raise ChainFormatError(f"{path}: point labels must be distinct")
    try:
        dist = np.array(doc["dist"], dtype=float)
        kernel = np.array(doc["kernel"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChainFormatError(f"{path}: dist/kernel must be numeric matrices: {exc}") from exc
    origin = doc.get("origin")
    if origin is not None:
        if isinstance(origin, str):
            if origin not in points:
                raise ChainFormatError(f"{path}: origin label {origin!r} not among points")
            origin = points.index(origin)
        elif isinstance(origin, bool) or not isinstance(origin, int):
            raise ChainFormatError(f"{path}: origin must be a point label or an integer index")
    try:
        chain = MetricChain(points=points, dist=dist, kernel=kernel, origin_hint=origin)
        chain.check_triangle_inequality()
    except ChainValidationError as exc:
        raise ChainValidationError(f"{path}: {exc}") from exc
    return chain


def check_origin(chain: MetricChain, origin: int) -> None:
    """Raise ValueError unless origin is a state index, 0 <= origin < n."""
    if not 0 <= origin < chain.n:
        raise ValueError(f"origin {origin} is not a state index: need "
                         f"0 <= origin < n = {chain.n}")


def _shortest_paths(d: np.ndarray, t: float) -> np.ndarray:
    """All-pairs shortest paths over the pairs with 0 < d <= t (d = 0 only on the diagonal)."""
    return shortest_path(csr_array(np.where(d <= t, d, 0.0)), directed=False)


def check_epsilon_geodesic(chain: MetricChain, epsilon: float) -> Optional[Tuple[int, int]]:
    """A pair whose distance no chain of steps of length <= epsilon realizes, or None.

    None iff for every pair the shortest-path distance in the graph whose
    edges are point pairs at distance <= epsilon (edge weight = distance)
    equals d(x, y) within 1e-9, else the pair of largest defect.  On a line
    metric that holds iff no gap between coordinate-order neighbours exceeds
    epsilon, and the witness is the pair across the largest gap.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = chain.dist
    if chain.coords is not None:
        order = np.argsort(chain.coords, kind="stable")
        gaps = d[order[:-1], order[1:]]
        if gaps.max(initial=0.0) <= epsilon + DIST_TOL:
            return None
        k = int(np.argmax(gaps))
        return int(order[k]), int(order[k + 1])
    defect = np.abs(_shortest_paths(d, epsilon + DIST_TOL) - d)
    i, j = np.unravel_index(int(np.argmax(defect)), defect.shape)
    return None if defect[i, j] <= GEODESIC_TOL else (int(i), int(j))
