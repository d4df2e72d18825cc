"""Graphs underlying CV graph-state probes and their characteristic trace ratios.

A probe graph is a plain undirected, unweighted graph on n vertices; the
adjacency matrix doubles as the coupling matrix of the entangling gates. Two
scalar figures of a graph control the sensing performance of the resulting
state: chi_phase = Tr(A^4)/Tr(A^2)^2 and chi_disp = sum_ij (A^2)_ij / Tr(A^2).
"""

import functools

import numpy as np


class EdgelessGraphError(ValueError):
    """Raised when a trace ratio is requested for a graph with no edges."""


class Graph:
    """Undirected unweighted graph on n vertices, stored as the row classes of A.

    Vertices with identical rows of the 0/1 adjacency matrix A (false twins)
    form one class: `classes` (c) numbers them in order of first occurrence,
    `rows` (U, float64) holds one row per class, `reps` its first vertex and
    `gram` is G = U U^T, so A = U[c] and (A^2)_jk = G[c[j], c[k]], exact below
    2^53. All are read-only: c, U and reps are set at construction, G on its
    first read. u = 2 on a star, 1 on the empty graph, l on the complete
    l-partite graph: the families build these in O(u n). Graph(n, adjacency,
    label) hashes the rows of a dense A once, O(n^2); without twins c is the
    identity and u = n. Equality compares n and A only.
    """

    def __init__(self, n, adjacency, label="custom"):
        a = np.asarray(adjacency, dtype=np.int64)
        if a.shape != (n, n):
            raise ValueError(f"adjacency must be {n}x{n}, got {a.shape}")
        if not a.size or a.view(np.uint64).max() <= 1:  # negative entries wrap to > 1
            a = a.astype(bool)  # other entries keep their values for validation
        first = {}  # key: the row's bytes; value: its first vertex
        raw = [first.setdefault(row.tobytes(), j) for j, row in enumerate(a)]
        reps = np.array(list(first.values()), dtype=np.intp)
        # first vertices ascend, so their rank numbers the classes 0..u-1
        self._store(n, a.take(reps, axis=0), reps.searchsorted(raw), reps, label)

    def _store(self, n, rows, classes, reps, label):
        """Validate and set A = rows[classes], reps the first vertex of each class."""
        self.n, self.label = n, label
        self.__post_init__(rows, classes, reps)
        self.rows, self.classes, self.reps = rows.astype(float), classes, np.asarray(reps)
        self._degrees = rows.sum(axis=1, dtype=np.int64).take(classes)
        for array in (self.rows, self.classes, self.reps, self._degrees):
            array.flags.writeable = False
        return self

    @functools.cached_property
    def gram(self):
        gram = self.rows @ self.rows.T
        gram.flags.writeable = False
        return gram

    def __post_init__(self, rows, classes, reps):
        """Validation in O(u n), timed by perfbench as graph.validate. With M =
        U[:, reps], A = U[c] is symmetric iff U = M.T[:, c]; then A_jj = M[c[j], c[j]]."""
        m = rows.take(reps, axis=1)
        if not (rows == m.T.take(classes, axis=1)).all():
            raise ValueError("adjacency must be symmetric")
        if m.diagonal().any():
            raise ValueError("adjacency must have zero diagonal (no self-loops)")
        if rows.dtype != bool and (rows.min() < 0 or rows.max() > 1):
            raise ValueError("adjacency entries must be 0 or 1")

    def __eq__(self, other):  # len(classes) == n
        return (isinstance(other, Graph) and np.array_equal(self.classes, other.classes)
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.classes.tobytes(), self.rows.tobytes()))

    @property
    def adjacency(self) -> np.ndarray:
        """The dense int64 matrix A = U[c], expanded anew on each read."""
        return self.rows.astype(np.int64).take(self.classes, axis=0)

    @property
    def edge_count(self) -> int:
        return int(self._degrees.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self._degrees


def graph_from_edges(n, edges, label="custom") -> Graph:
    """Build a graph from 1-based unordered vertex pairs; duplicates collapse.

    The first self-loop, or pair out of range or not integral, raises ValueError.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    try:
        e = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
    except OverflowError:  # beyond int64, hence out of range: compare exactly
        e = np.array(edges, dtype=object).reshape(len(edges), 2)
    bad = np.flatnonzero((e[:, 0] == e[:, 1])
                         | ((e < 1) | (e > n) | (e != np.reshape(edges, e.shape))).any(axis=1))
    if bad.size:
        i, j = edges[bad[0]]
        raise ValueError(f"self-loop ({i},{j}) is not allowed" if i == j
                         else f"edge ({i},{j}) out of range for n={n}")
    a = np.zeros((n, n), dtype=np.int64)
    a[e[:, 0] - 1, e[:, 1] - 1] = a[e[:, 1] - 1, e[:, 0] - 1] = 1
    return Graph(n, a, label)


def _complete_multipartite(classes, reps, label) -> Graph:
    """The graph whose vertices are adjacent exactly when their classes differ."""
    rows = classes != np.arange(len(reps))[:, None]
    return Graph.__new__(Graph)._store(len(classes), rows, classes, reps, label)


def empty_graph(n) -> Graph:
    """The edgeless graph on n vertices (separable probe): one class."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    return _complete_multipartite(np.zeros(n, dtype=np.intp), [0], f"empty({n})")


def star_graph(n) -> Graph:
    """Star on n >= 2 vertices, vertex 1 being the hub: classes hub and leaves."""
    if n < 2:
        raise ValueError("star graph needs n >= 2")
    return _complete_multipartite(np.arange(n).clip(max=1), [0, 1], f"star({n})")


def multipartite_graph(l, m) -> Graph:
    """Complete l-partite graph with parts of equal size m, one class each.

    Vertices in different parts are adjacent, vertices in the same part are
    not. Equivalently A = (J_l - I_l) (x) J_m. The nonzero eigenvalues are
    (l-1)m once and -m with multiplicity l-1.
    """
    if l < 2:
        raise ValueError("multipartite graph needs l >= 2 parts")
    if m < 1:
        raise ValueError("multipartite graph needs part size m >= 1")
    return _complete_multipartite(np.arange(l * m) // m, np.arange(0, l * m, m),
                                  f"multipartite({l},{m})")


def rectangular_graph(m) -> Graph:
    """Band graph on n = 4m vertices with offsets +-1 and +-4, no wraparound.

    Vertex i is adjacent to i+-1 and i+-4 whenever the neighbor index stays
    inside [1, n]; the band is clipped at the ends rather than wrapped, so
    Tr(A^2) = 4n - 10 exactly.
    """
    if m < 2:
        raise ValueError("rectangular graph needs m >= 2")
    i = np.arange(1, 4 * m + 1)
    edges = np.concatenate([np.stack((i[:-off], i[off:]), axis=1) for off in (1, 4)])
    return graph_from_edges(4 * m, edges, f"rectangular({m})")


def trace_power(g: Graph, k) -> int:
    """Tr(A^k), exact for the 0/1 adjacency matrices handled here.

    Summed over the row classes of g (Graph), w the class sizes: Tr(A^2) is the
    degree sum, Tr(A^4) = w^T (G o G) w and otherwise Tr((diag(w) M)^k), as
    A = P M P^T (P the class indicator, M = U[:, reps]); exact below 2^53.
    """
    if k < 1:
        raise ValueError("power must be a positive integer")
    if k == 2:
        return int(g.degrees().sum())
    w = np.bincount(g.classes).astype(float)
    if k == 4:
        return int(round(float(w @ np.square(g.gram) @ w)))
    wm = w[:, None] * g.rows[:, g.reps]
    return int(round(float(np.trace(np.linalg.matrix_power(wm, k)))))


def adjacency_squared(g: Graph) -> np.ndarray:
    """A^2 in float64, exact: the class Gram matrix G of g expanded in
    O(n^2); without twins it is the read-only G = A A^T itself."""
    c = g.classes
    return g.gram if len(g.gram) == g.n else g.gram.take(c, axis=0).take(c, axis=1)


def adjacency_square_sum(g: Graph) -> int:
    """Sum of all entries of A^2 (equals the sum of squared degrees)."""
    return int(g.degrees() @ g.degrees())


def chi_phase(g: Graph) -> float:
    """Phase-sensing characteristic figure Tr(A^4) / Tr(A^2)^2.

    Bounded above by 1 for any graph with at least one edge.
    """
    t2 = trace_power(g, 2)
    if t2 == 0:
        raise EdgelessGraphError("chi_phase undefined for an edgeless graph")
    return trace_power(g, 4) / t2**2


def chi_disp(g: Graph) -> float:
    """Displacement-sensing characteristic figure sum_ij (A^2)_ij / Tr(A^2).

    Bounded above by n for any graph with at least one edge.
    """
    t2 = trace_power(g, 2)
    if t2 == 0:
        raise EdgelessGraphError("chi_disp undefined for an edgeless graph")
    return adjacency_square_sum(g) / t2


def parse_edge_list(text, label="custom") -> Graph:
    """Parse the edge-list text format.

    First non-comment line is the vertex count n; each following line is an
    edge "i j" with 1-based indices. Lines starting with '#' are ignored.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ValueError(f"line {lineno}: expected the vertex count, got {raw!r}")
            n = int(parts[0])
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise ValueError("edge-list input is empty")
    return graph_from_edges(n, edges, label)


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), label=str(path))
