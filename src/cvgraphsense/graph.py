"""Graphs underlying CV graph-state probes and their characteristic trace ratios.

A probe graph is a plain undirected, unweighted graph on n vertices; the
adjacency matrix doubles as the coupling matrix of the entangling gates. Two
scalar figures of a graph control the sensing performance of the resulting
state: chi_phase = Tr(A^4)/Tr(A^2)^2 and chi_disp = sum_ij (A^2)_ij / Tr(A^2).
"""

from dataclasses import dataclass, field

import numpy as np


class EdgelessGraphError(ValueError):
    """Raised when a trace ratio is requested for a graph with no edges."""


@dataclass(frozen=True)
class Graph:
    """Undirected unweighted graph given by its 0/1 adjacency matrix."""

    n: int
    adjacency: np.ndarray
    label: str = field(default="custom", compare=False)

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=np.int64)
        if a.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have zero diagonal (no self-loops)")
        if a.size and (a.min() < 0 or a.max() > 1):
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", a)

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


def graph_from_edges(n, edges, label="custom") -> Graph:
    """Build a graph from 1-based unordered vertex pairs.

    Duplicate pairs collapse to a single edge. Self-loops and out-of-range
    indices are rejected.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) is not allowed")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        a[i - 1, j - 1] = 1
        a[j - 1, i - 1] = 1
    return Graph(n, a, label)


def empty_graph(n) -> Graph:
    """The edgeless graph on n vertices (separable probe)."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    return Graph(n, np.zeros((n, n), dtype=np.int64), f"empty({n})")


def star_graph(n) -> Graph:
    """Star on n >= 2 vertices, vertex 1 being the hub."""
    if n < 2:
        raise ValueError("star graph needs n >= 2")
    a = np.zeros((n, n), dtype=np.int64)
    a[0, 1:] = 1
    a[1:, 0] = 1
    return Graph(n, a, f"star({n})")


def multipartite_graph(l, m) -> Graph:
    """Complete l-partite graph with parts of equal size m.

    Vertices in different parts are adjacent, vertices in the same part are
    not. Equivalently A = (J_l - I_l) (x) J_m. The nonzero eigenvalues are
    (l-1)m once and -m with multiplicity l-1.
    """
    if l < 2:
        raise ValueError("multipartite graph needs l >= 2 parts")
    if m < 1:
        raise ValueError("multipartite graph needs part size m >= 1")
    block = np.ones((l, l), dtype=np.int64) - np.eye(l, dtype=np.int64)
    a = np.kron(block, np.ones((m, m), dtype=np.int64))
    return Graph(l * m, a, f"multipartite({l},{m})")


def rectangular_graph(m) -> Graph:
    """Band graph on n = 4m vertices with offsets +-1 and +-4, no wraparound.

    Vertex i is adjacent to i+-1 and i+-4 whenever the neighbor index stays
    inside [1, n]; the band is clipped at the ends rather than wrapped, so
    Tr(A^2) = 4n - 10 exactly.
    """
    if m < 2:
        raise ValueError("rectangular graph needs m >= 2")
    n = 4 * m
    a = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n)
    for off in (1, 4):
        a[idx[:-off], idx[off:]] = 1
        a[idx[off:], idx[:-off]] = 1
    return Graph(n, a, f"rectangular({m})")


def trace_power(g: Graph, k) -> int:
    """Tr(A^k), exact for the 0/1 adjacency matrices handled here.

    Powers are evaluated in float64 (BLAS); entries stay far below 2^53 for
    any graph this package constructs, so the rounded result is exact.
    Tr(A^4) = sum_jk (A^2)_jk^2 is summed over the row classes of A (see
    _row_classes) as w^T (G o G) w, w the class sizes.
    """
    if k < 1:
        raise ValueError("power must be a positive integer")
    if k == 1:
        return 0
    if k == 2:
        return int(g.adjacency.sum())
    if k == 3:
        return int(round(float(np.sum(g.adjacency * adjacency_squared(g)))))
    if k == 4:
        _, gram, cls = _row_classes(g)
        w = np.bincount(cls).astype(float)
        return int(round(float(w @ np.square(gram) @ w)))
    a = g.adjacency.astype(float)
    return int(round(float(np.trace(np.linalg.matrix_power(a, k)))))


def _row_classes(g: Graph):
    """(U, G, c): the distinct rows of A, their Gram matrix, the class of each row.

    Vertices with identical rows (false twins: the same neighbourhood) form
    one class. c[j] numbers the class of vertex j in order of first
    occurrence and U (float64) holds one row per class, so A = U[c] and
    (A^2)_jk = G[c[j], c[k]] with G = U U^T. Rows are grouped by hashing
    their packed bits, O(n^2); G then costs O(u^2 n) for u classes: u = 2 on
    a star, 1 on the empty graph, l on the complete l-partite graph, and n on
    a graph without twins, where c is the identity and G is A A^T itself.
    Every entry of G is an integer below 2^53, so G is exact.
    """
    # packing a bool copy is several times faster than packing int64 directly
    packed = np.packbits(g.adjacency.astype(bool), axis=1)
    width, buf = packed.shape[1], packed.tobytes()
    # key: the packed row; value: its first vertex
    first = {}
    raw = np.array([first.setdefault(buf[j * width:(j + 1) * width], j)
                    for j in range(g.n)], dtype=np.intp)
    reps = np.array(list(first.values()), dtype=np.intp)
    rows = g.adjacency.take(reps, axis=0).astype(float)
    # first vertices ascend, so their rank numbers the classes 0..u-1
    return rows, rows @ rows.T, reps.searchsorted(raw)


def adjacency_squared(g: Graph) -> np.ndarray:
    """A^2 in float64, exact for 0/1 adjacency matrices.

    Expanded from the row-class Gram matrix of _row_classes, so it costs
    O(n^2) on graphs with few distinct neighbourhoods. Without twins it is
    A A^T, which numpy hands to the symmetric rank-k BLAS routine: half the
    multiply-adds of a general product.
    """
    _, gram, cls = _row_classes(g)
    if gram.shape[0] == g.n:
        return gram
    return gram.take(cls, axis=0).take(cls, axis=1)


def adjacency_square_sum(g: Graph) -> int:
    """Sum of all entries of A^2 (equals the sum of squared degrees)."""
    deg = g.adjacency.sum(axis=1)
    return int((deg * deg).sum())


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
