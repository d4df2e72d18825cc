"""Graphs underlying CV graph-state probes and their characteristic trace ratios.

A probe graph is a plain undirected, unweighted graph on n vertices; the
adjacency matrix doubles as the coupling matrix of the entangling gates. Two
scalar figures of a graph control the sensing performance of the resulting
state: chi_phase = Tr(A^4)/Tr(A^2)^2 and chi_disp = sum_ij (A^2)_ij / Tr(A^2).
"""

import functools
import re

import numpy as np

_HEAD = r"(?:[ \t]*(?:#[^\n-\r\x1c-\x1e\x85\u2028\u2029]*)?\n)*[ \t]*[0-9]{1,18}[ \t]*(?:\n|\Z)"
_ODD = r"(?m)^(?![ \t]*(?:[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*|#[^\n-\r\x1c-\x1e\x85\u2028\u2029]*)?$)"


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
    label) checks a dense A and hashes its rows once, O(n^2), graph_from_edges
    each vertex's sorted neighbours, O(m log m + u n) for m pairs; without twins
    c is the identity and u = n. Equality compares n and A only.

    Other modules read A as g @ v = (U v)[c] or the float64 `adjacency`; only
    the phase closed form's class sums, the generic phase QFI's blocks of A^2
    and the grouped homodyne FI's quotient read U, c or G themselves.
    """

    def __init__(self, n, adjacency, label="custom"):
        if n < 1:
            raise ValueError("vertex count must be positive")
        a = np.asarray(adjacency, dtype=np.int64)
        if a.shape != (n, n):
            raise ValueError(f"adjacency must be {n}x{n}, got {a.shape}")
        if a.view(np.uint64).max() <= 1:  # negative entries wrap to > 1
            a = a.astype(bool)  # other entries keep their values for the last check
        if (a != a.T).any():
            raise ValueError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ValueError("adjacency must have zero diagonal (no self-loops)")
        if a.dtype != bool:
            raise ValueError("adjacency entries must be 0 or 1")
        first = {}  # key: the row's bytes; value: its first vertex
        raw = [first.setdefault(row.tobytes(), j) for j, row in enumerate(a)]
        reps = np.array(list(first.values()), dtype=np.intp)
        # first vertices ascend, so their rank numbers the classes 0..u-1
        self.__post_init__(n, a.take(reps, axis=0), reps.searchsorted(raw), reps, label)

    def __post_init__(self, n, rows, classes, reps, label, degrees=None):
        """Set A = rows[classes], reps the first vertex of each class; no checks, as only
        Graph(n, adjacency) reads input that can be invalid. Every constructor ends in
        exactly one call: perfbench's tracer wraps it to count graph.build_calls."""
        self.n, self.label = n, label
        self.rows, self.classes, self.reps = rows.astype(float, copy=False), classes, np.asarray(reps)
        self._degrees = rows.sum(axis=1, dtype=np.int64).take(classes) if degrees is None else degrees
        for array in (self.rows, self.classes, self.reps, self._degrees):
            array.flags.writeable = False
        return self

    @functools.cached_property
    def gram(self):
        gram = self.rows @ self.rows.T
        gram.flags.writeable = False
        return gram

    def __eq__(self, other):  # len(classes) == n
        return (isinstance(other, Graph) and np.array_equal(self.classes, other.classes)
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.classes.tobytes(), self.rows.tobytes()))

    def __matmul__(self, v):
        """A v = (U v)[c] for a vector v, or for each column of a matrix v."""
        return (self.rows @ v)[self.classes]

    @property
    def adjacency(self) -> np.ndarray:
        """The dense float64 matrix A = U[c], expanded anew on each read."""
        return self.rows.take(self.classes, axis=0)

    @property
    def edge_count(self) -> int:
        return int(self._degrees.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self._degrees


def graph_from_edges(n, edges, label="custom") -> Graph:
    """Build a graph from 1-based unordered vertex pairs, with no n x n array.

    Duplicates collapse; the first self-loop, or pair out of range or not integral,
    raises ValueError, as does a vertex count whose keys j n + k would pass int64."""
    if n < 1 or int(n) ** 2 > np.iinfo(np.int64).max:
        raise ValueError("vertex count must be positive" if n < 1 else f"vertex count {n} is too large")
    e = _integers(edges).reshape(len(edges), 2)
    bad = np.flatnonzero((e[:, 0] == e[:, 1])
                         | ((e < 1) | (e > n) | (e != np.reshape(edges, e.shape))).any(axis=1))
    if bad.size:
        i, j = edges[bad[0]]
        raise ValueError(f"self-loop ({i},{j}) is not allowed" if i == j
                         else f"edge ({i},{j}) out of range for n={n}")
    keys = np.sort(((e - 1) @ [[n, 1], [1, n]]).ravel())  # A_jk = 1 as j n + k, row by row
    keys = keys[np.diff(keys, prepend=-1) != 0]
    j, k = np.divmod(keys, n)
    degrees = np.bincount(j, minlength=n)  # the first array of size n: too large an n fails here
    vs = np.flatnonzero(degrees)  # the vertices with neighbours, whose runs follow in k
    ends = (8 * degrees[vs].cumsum()).tolist()  # vs[i]'s run is row[ends[i-1]:ends[i]]
    row, first = k.tobytes(), {}  # first: key, a run's bytes; value, its first vertex
    raw = np.full(n, degrees.argmin())  # isolated vertices, if any, share the first one's row
    raw[vs] = [first.setdefault(row[a:b], v) for v, a, b in zip(vs.tolist(), [0] + ends, ends)]
    reps = np.flatnonzero(raw == np.arange(n))  # a class's first vertex is its own first twin
    classes = reps.searchsorted(raw)
    rows = np.zeros((len(reps), n))
    rows[classes[j], k] = 1.0  # twins write the same row
    return Graph.__new__(Graph).__post_init__(n, rows, classes, reps, label, degrees)


def _integers(values):
    """values as int64, or as exact Python ints if one is beyond int64 (so out of range)."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def _complete_multipartite(classes, reps, label) -> Graph:
    """The graph whose vertices are adjacent exactly when their classes differ."""
    rows = classes != np.arange(len(reps))[:, None]
    return Graph.__new__(Graph).__post_init__(len(classes), rows, classes, reps, label)


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
    """A^2 in float64, exact: the class Gram matrix G of g expanded in O(n^2)."""
    return g.gram.take(g.classes, axis=0).take(g.classes, axis=1)


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
    """Parse the edge-list text format: the first non-comment line is the vertex count n,
    each following line an edge "i j" with 1-based indices; lines starting with '#' are
    ignored. A plain text (_HEAD, then no _ODD line: '\\n' line ends, tokens of 1-18 ASCII
    digits, spaces, tabs, '#' lines with no other line break) takes one split; _parse_lines
    reads any other, to the same result or ValueError. re compiles both on the first parse."""
    plain = (head := re.match(_HEAD, text)) and not re.compile(_ODD).search(text, head.end())
    ints = np.array(re.sub("#.*", "", text).split(), dtype=np.int64) if plain else _parse_lines(text)
    return graph_from_edges(int(ints[0]), ints[1:].reshape(-1, 2), label)


def _parse_lines(text):
    ints = []  # the vertex count, then the two indices of each edge
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != (2 if ints else 1):
            expected = "'i j'" if ints else "the vertex count"
            raise ValueError(f"line {lineno}: expected {expected}, got {raw!r}")
        try:
            ints += map(int, parts)
        except ValueError:
            expected = "integer vertex indices 'i j'" if ints else "an integer vertex count"
            raise ValueError(f"line {lineno}: expected {expected}, got {raw!r}") from None
    if not ints:
        raise ValueError("edge-list input is empty")
    return _integers(ints)


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), label=str(path))
