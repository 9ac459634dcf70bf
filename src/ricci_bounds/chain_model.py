"""Finite metric spaces carrying Markov kernels, plus the example chain builders.

A MetricChain is the universal input object: an ordered point set, a full
distance matrix, and a row-stochastic transition kernel.  Chains on a subset
of the real line, given by coordinates or by a line-metric distance matrix,
also carry per-point coordinates, which unlock the closed-form line
transport used by the curvature sweep.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .errors import ChainFormatError, ChainValidationError

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# Masses within this of 1 sum to 1: every kernel row, and so every measure W1 moves.
ROW_SUM_TOL = 1e-12
GEODESIC_TOL = 1e-9
# Distances closer than this are equal.  The symmetry check and every "within
# eps" test share it, so the eps-geodesic check and the curvature ball agree on
# which pairs are near.
DIST_TOL = 1e-12
# Levels the breadth-first search of `_shortest_paths` runs before it hands a
# graph to Dijkstra: up to 64 levels it does no more word operations than
# Dijkstra does edge relaxations.
BFS_LEVELS = 64
# Most states a builder makes: its dist and kernel are dense n x n float64
# matrices, 1.02 GB together at 8000 states.
MAX_DENSE_STATES = 8000
# Entries per row block of a scan over an n x n matrix (2^19 entries of 8 bytes,
# 4 MB), so that no scan copies a whole matrix.  A block only reduces or
# gathers, so its size changes no result.
_BLOCK = 1 << 19


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
    geodesic_at : a distance t whose graph of the pairs at d <= t realizes
        every distance within GEODESIC_TOL, once the triangle check found it;
        the chain is then eps-geodesic at every eps >= t
    """

    points: Tuple[str, ...]
    dist: Optional[np.ndarray] = None
    kernel: np.ndarray
    origin_hint: Optional[int] = None
    coords: Optional[np.ndarray] = None
    gaussian_variance: Optional[float] = None
    geodesic_at: Optional[float] = field(default=None, init=False, repr=False, compare=False)

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
        # |c_i - c_j| is exactly symmetric with an exact zero diagonal: only a
        # given dist is scanned for both
        if coords is None:
            rows = max(1, _BLOCK // n)
            for r in range(0, n, rows):
                block = dist[r:r + rows] - dist[:, r:r + rows].T
                if np.abs(block, out=block).max() > DIST_TOL:
                    i, j = np.unravel_index(np.argmax(np.abs(dist - dist.T)), dist.shape)
                    raise ChainValidationError(
                        f"dist not symmetric: dist[{i}][{j}]={dist[i, j]!r} != "
                        f"dist[{j}][{i}]={dist[j, i]!r}")
            if np.any(np.diag(dist) != 0.0):
                i = int(np.nonzero(np.diag(dist))[0][0])
                raise ChainValidationError(
                    f"dist diagonal must be exactly 0, dist[{i}][{i}]={dist[i, i]!r}")
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

        A chain with coords needs no search: dist is within GEODESIC_TOL of
        the line metric |c_i - c_j|, which is a metric, so every triangle
        holds within 3 GEODESIC_TOL.  Otherwise a path is a sum of real
        distances: one shorter than d(i, j) exposes a failing triangle at
        endpoint i, and shortest paths equal to d prove the inequality.  The
        graph of the smallest distance settles path metrics; its edges share
        one weight, so `_shortest_paths` answers it by a
        word-parallel breadth-first search unless some distance exceeds
        BFS_LEVELS smallest distances or a search runs past BFS_LEVELS levels.
        Other metrics fall back to the complete graph, whose paths never
        exceed d and which goes to Dijkstra.  The excess d - path is computed
        in place on the path-length matrix.
        """
        d = self.dist
        if self.n < 3 or self.coords is not None:
            return
        for t in (np.min(d, where=d > 0, initial=np.inf), d.max()):
            excess = _shortest_paths(d, t)
            np.subtract(d, excess, out=excess)
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            if excess[i, j] > GEODESIC_TOL:
                slack = d[i][None, :] - d[i][:, None] - d
                k, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
                raise ChainValidationError(
                    f"triangle inequality violated by {slack[k, j]:.3e}: "
                    f"d({i},{j}) > d({i},{k}) + d({k},{j})")
            if excess.min() >= -GEODESIC_TOL:
                # |sp - d| <= GEODESIC_TOL: eps-geodesic at every eps >= t
                object.__setattr__(self, "geodesic_at", float(t))
                return


def _check_dense_size(size: float) -> None:
    if size > MAX_DENSE_STATES:
        raise ValueError(
            f"{size:.15g} states exceed the dense-chain budget MAX_DENSE_STATES = "
            f"{MAX_DENSE_STATES} (two {size:.15g} x {size:.15g} float64 matrices would "
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
    # rounded as a float: an infinite ratio meets the budget check, where int() would raise
    m = round(grid_half_width / grid_step, 0)
    if m < 1:
        raise ValueError("grid too small; increase grid_half_width (--grid-width)")
    _check_dense_size(2 * m + 1)
    m = int(m)
    coords = np.arange(-m, m + 1) * grid_step
    size = coords.size
    cell_edges = (coords[:-1] + coords[1:]) / 2.0
    kernel = np.empty((size, size))
    # imported here: the queueing commands never build this chain or load scipy.special
    from scipy.special import ndtr
    for i, x in enumerate(coords):
        cdf = ndtr(cell_edges - (1.0 - alpha) * x)
        kernel[i] = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    return MetricChain(points=tuple(f"{x:.10g}" for x in coords),
                       kernel=kernel, origin_hint=m,
                       coords=coords, gaussian_variance=1.0)


def _reject_constant(token):
    raise ChainFormatError(f"non-finite number {token!r} not accepted")


_JSON_KINDS = {str: "a string", bool: "true or false", type(None): "null", dict: "an object",
               list: "an array", int: "a number", float: "a number"}


class _MatrixRows:
    """A dist or kernel field, written row by row into one n x n float array,
    n the length of its first row, refused past MAX_DENSE_STATES before the
    array exists.

    numpy's dtype discovery tells numbers from strings, and makes null,
    objects and integers past 64 bits objects; true and false it takes as
    numbers, so a row whose text holds a 't' or an 'f', letters that no JSON
    number holds, has each value's type checked.  The first refused row keeps
    its error for `matrix`, and the rows after it are only counted."""

    def __init__(self, head: str):
        self.head = head
        self.rows, self.array, self.error = 0, None, None

    def add(self, row, lettered: bool) -> None:
        if self.error is None:
            try:
                self._put(row, lettered)
            except ChainFormatError as exc:
                self.error = exc
        self.rows += 1

    def _put(self, row, lettered: bool) -> None:
        if type(row) is not list:
            raise ChainFormatError(f"{self.head} holds {_JSON_KINDS[type(row)]} in place of a row")
        try:
            found = np.array(row)
        except ValueError:                  # arrays of unequal length in the row
            found = None
        if found is None or found.ndim != 1 or found.dtype.kind not in "iuf" or lettered:
            for v in row:
                if type(v) not in (int, float):
                    raise ChainFormatError(
                        f"{self.head} holds {_JSON_KINDS[type(v)]}, not a JSON number")
        if self.array is None:
            try:
                _check_dense_size(found.size)
            except ValueError as exc:
                raise ChainFormatError(f"{self.head}: {exc}") from exc
            self.array = np.empty((found.size, found.size))
        if found.size != self.array.shape[1]:
            raise ChainFormatError(f"{self.head} has rows of unequal length")
        if self.rows < found.size:
            try:
                self.array[self.rows] = found
            except OverflowError as exc:    # an integer past the float range
                raise ChainFormatError(f"{self.head}: {exc}") from exc

    def matrix(self) -> np.ndarray:
        if self.error is not None:
            raise self.error
        if self.array is None:
            raise ChainFormatError(f"{self.head} has no rows")
        if self.rows != len(self.array):
            raise ChainFormatError(
                f"{self.head} is {self.rows} x {len(self.array)}, not square")
        return self.array


class _LastKey(dict):
    """A memo for json's parse_object, which interns each key through
    `memo.setdefault` just before it scans that key's value: `key` is the
    field whose value comes next."""

    def setdefault(self, key, default=None):
        self.key = key
        return key


def _read_document(path, text: str):
    """The JSON value of `text` as json.loads reads it, except that the dist
    and kernel fields of a top-level object become _MatrixRows, read one row
    at a time.

    json parses the structure: its parse_object walks a top-level object,
    its parse_array each matrix's array of rows, its C scan_once reads every
    value, and its decode the whitespace around them, so malformed text
    raises JSONDecodeError with json's message at json's position on every
    Python.  The _LastKey memo tells the value hook when it is at dist or
    kernel.  A refused matrix raises only from `matrix`, after the parse,
    so json's own errors still come first."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    decoder = json.JSONDecoder(parse_constant=_reject_constant)
    scan, memo = decoder.scan_once, _LastKey()

    def value(s, idx):
        if memo.key not in ("dist", "kernel"):
            return scan(s, idx)
        rows = _MatrixRows(f"{path}: dist/kernel must be numeric matrices: {memo.key}")
        if not s.startswith("[", idx):
            rows.error = ChainFormatError(f"{rows.head} is not an array of rows")
            return rows, scan(s, idx)[1]

        def row(s, at):
            found, end = scan(s, at)
            rows.add(found, s.find("t", at, end) >= 0 or s.find("f", at, end) >= 0)
            return None, end
        return rows, decoder.parse_array((s, idx + 1), row)[1]

    def document(s, idx):
        if s.startswith("{", idx):
            return decoder.parse_object((s, idx + 1), decoder.strict, value, None, None, memo)
        return scan(s, idx)

    decoder.scan_once = document
    return decoder.decode(text)


def _infer_line_coords(dist: np.ndarray) -> Optional[np.ndarray]:
    """Coordinates realizing dist on the real line within GEODESIC_TOL, or None.

    The candidate is the row of the point farthest from point 0.  It is
    checked in row blocks of about 2^19 entries, so no n x n matrix is
    copied, and a metric that is no line metric stops at the first block
    that fails (NaN fails).
    """
    coords = dist[int(np.argmax(dist[0]))].copy()
    n = coords.size
    rows = max(1, _BLOCK // n)
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
    (row-major arrays of arrays of JSON numbers), optional `origin` (a label,
    or an integer index).  NaN/Inf are rejected; all invariants including the
    triangle inequality are checked on load.  json's own parse_object and
    parse_array walk the file (the memo hook of `_read_document` finds dist
    and kernel), and its C scan_once reads each row into the matrix's float
    array; only a row whose text holds a 't' or an 'f' has each value's type
    checked.  So no Python object tree of the matrices is built.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = _read_document(path, text)
    except json.JSONDecodeError as exc:
        raise ChainFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ChainFormatError(f"{path}: not UTF-8: byte {exc.start}: {exc.reason}") from exc
    except ChainFormatError as exc:
        raise ChainFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ChainFormatError(f"{path}: nested too deeply to parse: {exc}") from exc
    except OSError as exc:
        raise ChainFormatError(f"{path}: cannot read: {exc.strerror}") from exc
    del text
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
    dist = doc["dist"].matrix()
    kernel = doc["kernel"].matrix()
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
    """All-pairs shortest paths over the pairs with 0 < d <= t, taken in either direction.

    When every such pair has one weight w and d.max() <= BFS_LEVELS * w, a
    breadth-first search from all points at once (`_hop_lengths`) gives the
    lengths: Dijkstra's distance for a pair h hops apart is then the float
    sum w + ... + w of h terms, whatever path it settles on, so the two agree
    bit for bit.  A search with a frontier left after BFS_LEVELS levels, and
    every graph with several weights, goes to scipy's Dijkstra.  Unreachable
    pairs are inf.  The graph is gathered in row blocks: no dense copy of d.
    """
    graph = _graph_at(d, t)
    w = graph.data
    if w.size and w.min() == w.max() and d.max() <= BFS_LEVELS * w[0]:
        lengths = _hop_lengths(graph, float(w[0]))
        if lengths is not None:
            return lengths
    # imported here: scipy.sparse.csgraph pulls in scipy.linalg, a tenth of a
    # second of import that graphs of one weight never need
    from scipy.sparse.csgraph import shortest_path
    return shortest_path(graph, directed=False)


def _graph_at(d: np.ndarray, t: float) -> csr_array:
    """The entries with 0 < d <= t as a CSR matrix, read in row blocks of about 2^19 entries."""
    n = len(d)
    rows = max(1, _BLOCK // n)
    counts, cols, data = [], [], []
    for r in range(0, n, rows):
        block = d[r:r + rows]
        edge = (block <= t) & (block > 0)
        counts.append(np.count_nonzero(edge, axis=1))
        cols.append(np.nonzero(edge)[1].astype(np.int32))
        data.append(block[edge])
    counts = np.concatenate(counts)
    # imported here: line chains never build a graph, so they never load scipy.sparse
    from scipy.sparse import csr_array
    # int32 indices, as scipy's csgraph routines take them, while they fit
    indptr = np.zeros(n + 1, dtype=np.int32 if counts.sum() < 2**31 else np.int64)
    np.cumsum(counts, out=indptr[1:])
    return csr_array((np.concatenate(data), np.concatenate(cols), indptr), shape=(n, n))


def _hop_lengths(graph: csr_array, w: float) -> Optional[np.ndarray]:
    """Path lengths on a graph of one edge weight w, or None past BFS_LEVELS levels.

    A word-parallel breadth-first search from all n sources at once, 64 per
    uint64 word (Then et al., VLDB 2014): bit s of reached[v] says the search
    from s has reached v.  Each level ORs the frontier words of v's
    neighbours, in either edge direction, into v's, gathered in edge blocks
    of about 2^19 words.  hops counts for each pair the levels after which
    it was still unreached, so it ends as the pair's hop count h, and the
    length is S(h) = w + ... + w (h terms, summed left to right), inf if
    never reached.
    """
    n = graph.shape[0]
    both = (graph + graph.T).tocsr()
    indptr, indices = both.indptr, both.indices
    words = -(-n // 64)
    budget = max(1, _BLOCK // words)
    blocks = []   # rows with an edge, where each row's edges start, the edges' columns
    r0 = 0
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + budget, "right")) - 1)
        rows = r0 + np.flatnonzero(np.diff(indptr[r0:r1 + 1]))
        if rows.size:
            blocks.append((rows, indptr[rows] - indptr[r0], indices[indptr[r0]:indptr[r1]]))
        r0 = r1
    reached = np.zeros((n, words), dtype="<u8")
    points = np.arange(n)
    reached.view(np.uint8)[points, points // 8] = 1 << (points % 8)
    frontier = reached.copy()
    hops = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(hops, 0)
    lengths = [0.0]
    for _ in range(BFS_LEVELS):
        new = np.zeros_like(reached)
        for rows, starts, cols in blocks:
            new[rows] = np.bitwise_or.reduceat(frontier[cols], starts, axis=0)
        new &= ~reached
        if not new.any():
            break
        reached |= new
        hops += np.unpackbits((~reached).view(np.uint8), axis=1, count=n, bitorder="little")
        lengths.append(lengths[-1] + w)
        frontier = new
    else:
        return None
    lengths.append(np.inf)
    return np.array(lengths)[hops]


def check_epsilon_geodesic(chain: MetricChain, epsilon: float) -> Optional[Tuple[int, int]]:
    """A pair whose distance no chain of steps of length <= epsilon realizes, or None.

    None iff for every pair the shortest-path distance in the graph whose
    edges are point pairs at distance <= epsilon (edge weight = distance)
    equals d(x, y) within 1e-9, else the pair of largest defect.  On a line
    metric that holds iff no gap between coordinate-order neighbours exceeds
    epsilon, and the witness is the pair across the largest gap.  At epsilon >=
    `geodesic_at` the triangle check's graph realizes every distance within
    GEODESIC_TOL by steps <= epsilon, the line branch's rule: None, no solve.
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
    if chain.geodesic_at is not None and epsilon + DIST_TOL >= chain.geodesic_at:
        return None
    defect = _shortest_paths(d, epsilon + DIST_TOL)
    defect -= d
    np.abs(defect, out=defect)
    i, j = np.unravel_index(int(np.argmax(defect)), defect.shape)
    return None if defect[i, j] <= GEODESIC_TOL else (int(i), int(j))
