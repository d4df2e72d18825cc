"""Graph constructors, edge-list parsing, and trace invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvgraphsense import graph
from cvgraphsense.graph import (
    EdgelessGraphError,
    Graph,
    adjacency_square_sum,
    adjacency_squared,
    chi_disp,
    chi_phase,
    empty_graph,
    graph_from_edges,
    multipartite_graph,
    parse_edge_list,
    rectangular_graph,
    star_graph,
    trace_power,
)
from cvgraphsense.gaussian import graph_state_covariance, mean_photon_number
from cvgraphsense.homodyne import saturate_displacement
from cvgraphsense.qfi import cross_check, qfi


def test_star_3_adjacency():
    g = star_graph(3)
    expected = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    np.testing.assert_array_equal(g.adjacency, expected)
    assert g.edge_count == 2
    assert g.label == "star(3)"


def test_star_spectrum():
    # star adjacency has eigenvalues +-sqrt(n-1) and zeros
    g = star_graph(5)
    evals = np.sort(np.linalg.eigvalsh(g.adjacency))
    np.testing.assert_allclose(evals[0], -2.0, atol=1e-12)
    np.testing.assert_allclose(evals[-1], 2.0, atol=1e-12)
    np.testing.assert_allclose(evals[1:-1], 0.0, atol=1e-12)


def test_star_requires_two_modes():
    with pytest.raises(ValueError):
        star_graph(1)


def test_empty_graph():
    g = empty_graph(4)
    assert g.n == 4
    assert g.edge_count == 0
    assert not g.adjacency.any()


@pytest.mark.parametrize("l,m", [(2, 1), (2, 3), (3, 2), (4, 2)])
def test_multipartite_degrees(l, m):
    g = multipartite_graph(l, m)
    assert g.n == l * m
    np.testing.assert_array_equal(g.degrees(), (l - 1) * m)


def test_multipartite_2_1_is_single_edge():
    g = multipartite_graph(2, 1)
    np.testing.assert_array_equal(g.adjacency, [[0, 1], [1, 0]])


def test_multipartite_spectrum():
    # complete multipartite K_{m,...,m}: eigenvalues (l-1)m, -m, and 0
    l, m = 4, 3
    g = multipartite_graph(l, m)
    evals = np.sort(np.linalg.eigvalsh(g.adjacency))
    np.testing.assert_allclose(evals[-1], (l - 1) * m, atol=1e-9)
    np.testing.assert_allclose(evals[: l - 1], -m, atol=1e-9)


def test_rectangular_edge_count():
    g = rectangular_graph(2)
    assert g.n == 8
    # ladder of 8 sites: 7 nearest-neighbour rungs + 4 long bonds
    assert g.edge_count == 11
    assert trace_power(g, 2) == 2 * g.edge_count


@pytest.mark.parametrize("m", [2, 3, 5, 10, 25])
def test_rectangular_trace_identities(m):
    g = rectangular_graph(m)
    n = g.n
    assert trace_power(g, 2) == 4 * n - 10
    assert trace_power(g, 4) == 36 * n - 162


def test_rectangular_requires_m_at_least_2():
    with pytest.raises(ValueError):
        rectangular_graph(1)


def test_graph_from_edges_duplicates_collapse():
    g = graph_from_edges(3, [(1, 2), (2, 1), (1, 2)])
    assert g.edge_count == 1


def test_graph_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(2, 2)])


def test_graph_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1)])


@pytest.mark.parametrize("edges,message", [
    ([(1, 2), (3, 3), (1, 9)], "self-loop (3,3) is not allowed"),
    ([(1, 2), (1, 9), (3, 3)], "edge (1,9) out of range for n=4"),
    ([(1, 2), (5, 5)], "self-loop (5,5) is not allowed"),
    ([(2, 3), (0, 1), (4, 4)], "edge (0,1) out of range for n=4"),
    ([(2, 3), (10**20, 10**20 + 1)], "edge (100000000000000000000,100000000000000000001) "
                                     "out of range for n=4"),
    ([(2, 3), (10**20, 10**20)], "self-loop (100000000000000000000,100000000000000000000) "
                                 "is not allowed"),
    ([(2, 3), (1.5, 2), (3, 3)], "edge (1.5,2) out of range for n=4"),
])
def test_graph_from_edges_names_first_bad_edge(edges, message):
    # the first bad pair in input order is named, its self-loop checked before its
    # range; an index that is not an integer is out of range
    with pytest.raises(ValueError) as exc:
        graph_from_edges(4, edges)
    assert str(exc.value) == message


def test_parse_edge_list():
    text = "# a comment\n4\n1 2\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edge_count == 2
    assert g.adjacency[0, 1] == 1 and g.adjacency[1, 2] == 1


def test_parse_edge_list_bad_line():
    with pytest.raises(ValueError):
        parse_edge_list("3\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_edge_list("")


@pytest.mark.parametrize("text,message", [
    ("2\n1 2.5\n", "line 2: expected integer vertex indices 'i j', got '1 2.5'"),
    ("# count\n\n 2.5\n1 2\n", "line 3: expected an integer vertex count, got ' 2.5'"),
    ("3\n1 2\n# x y\nx 3\n2 3 4\n", "line 4: expected integer vertex indices 'i j', got 'x 3'"),
    ("3\n1 2\n2 3 4\nx 3\n", "line 3: expected 'i j', got '2 3 4'"),
])
def test_parse_edge_list_names_first_malformed_line(text, message):
    with pytest.raises(ValueError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def _parse_by_lines(text):
    """parse_edge_list as the line loop alone read every text, the reference for its
    one-split path: the build takes the count and pairs as Python ints."""
    ints = graph._parse_lines(text).tolist()
    return graph_from_edges(ints[0], graph._integers(ints[1:]).reshape(-1, 2), "label")


def _outcome(parse, text):
    """(n and its type, graph, label) of a parse, or the text of its ValueError."""
    try:
        g = parse(text)
    except ValueError as exc:
        return str(exc)
    return g.n, type(g.n), g, g.label


# plain lines, which one split reads (each valid one three times as likely as the counts
# and edges that the build refuses), and odd ones, which only the line loop reads alike
# (a form feed, an Arabic-Indic digit, '+1', '1_0', a 19-digit token, '#' lines with
# other line breaks) or refuses
SKIP_LINES = ["", "  ", "\t", "# a comment", "  # #", "#\xa0kept"]
COUNT_LINES = 3 * ["4", " 12\t", "0004"] + ["0", "1" * 18]
EDGE_LINES = (3 * ["1 2", "  2 4 ", "3\t1", "1\t 4\t", "4 1", "2 3"]
              + ["1 5", "2 2", "1 " + "9" * 18])
ODD_LINES = ["\x0c", "1 2\x0c", "\u0663", "1 \u0663", "+1", "+1 2", "1_0", "1 2_0", "1" * 19,
             "1 " + "9" * 19, "# a\rb", "# a\x1cb", "# a\u2028b", "1 2 # c", "1 2 3", "1 2 2 3",
             "1 2.5", "x 3", "-1 2", "1 -2", "\u3000"]


@st.composite
def edge_list_texts(draw):
    """Blank and comment lines, a vertex count, then edge and blank lines, with or without
    a final newline; in about half of them one odd line is inserted, and in about half one
    line end is not a newline."""
    lines = (draw(st.lists(st.sampled_from(SKIP_LINES), max_size=2))
             + [draw(st.sampled_from(COUNT_LINES))]
             + draw(st.lists(st.sampled_from(SKIP_LINES + EDGE_LINES), max_size=8)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES)))
    ends = ["\n"] * len(lines)
    if draw(st.booleans()):
        ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(["\r\n", "\r", "\x0b",
                                                                           "\x85", "\u2028"]))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.removesuffix("\n")


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
@example("# count\n4\n1 2\n\n  2 4 \n# end").via("plain, no final line end")
@example("4\r\n1 2\r\n2 3\r\n").via("CRLF line ends")
@example("4\n1\t2\x0c\n").via("a form feed")
@example("1111111111111111111\n1 2\n").via("a 19-digit vertex count")
@example("4\n1 2 # c\n").via("an inline comment")
@example("").via("empty")
@example("# a\rb\n4\n1 2\n").via("a carriage return in a comment")
@example("4\n1 " + "9" * 19 + "\n").via("a 19-digit vertex index beyond int64")
def test_parse_edge_list_equals_line_loop(text):
    assert _outcome(lambda t: parse_edge_list(t, "label"), text) == _outcome(_parse_by_lines, text)


def test_plain_text_never_reaches_line_loop(monkeypatch):
    def refuse(text):
        raise AssertionError("read line by line")

    plain = "# a comment\n\n 4\n1 2\n  # another\n2\t3 \n3  4"
    expected = _parse_by_lines(plain)
    monkeypatch.setattr(graph, "_parse_lines", refuse)
    assert _outcome(lambda t: parse_edge_list(t, "label"), plain) == (4, int, expected, "label")
    with pytest.raises(AssertionError, match="read line by line"):
        parse_edge_list(plain.replace("\n", "\r\n"))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, np.array([[1, 0], [0, 0]]))  # nonzero diagonal
    for entry in (2, -1):  # entries not 0/1
        with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
            Graph(2, np.array([[0, entry], [entry, 0]]))
    with pytest.raises(ValueError, match="vertex count must be positive"):
        Graph(0, np.zeros((0, 0)))


@pytest.mark.parametrize("rows,classes,reps,message", [
    ([[0, 1, 1], [0, 0, 0]], [0, 1, 1], [0, 1], "adjacency must be symmetric"),
    # M = U[:, reps] is symmetric, but U[0, 2] differs from U[c[2], 0]
    ([[0, 1, 0], [1, 0, 0]], [0, 1, 1], [0, 1], "adjacency must be symmetric"),
    ([[1, 1], [1, 0]], [0, 1], [0, 1], "adjacency must have zero diagonal (no self-loops)"),
    ([[0, 2], [2, 0]], [0, 1], [0, 1], "adjacency entries must be 0 or 1"),
    # the first rule broken, in this order, is the one reported
    ([[0, 2], [1, 0]], [0, 1], [0, 1], "adjacency must be symmetric"),
    ([[1, 2], [2, 0]], [0, 1], [0, 1], "adjacency must have zero diagonal (no self-loops)"),
    ([[0, -1], [-1, 0]], [0, 1], [0, 1], "adjacency entries must be 0 or 1"),
])
def test_class_form_validation(rows, classes, reps, message):
    # each case is the class form (U, c, reps) of the dense matrix A = U[c]
    rows, classes = np.array(rows), np.array(classes)
    assert np.unique(classes, return_index=True)[1].tolist() == reps
    with pytest.raises(ValueError) as exc:
        Graph(len(classes), rows[classes])
    assert str(exc.value) == message


def _checked_in_class_form(n, a):
    """The dense constructor as it was when every graph was checked after the
    build, on its row classes: (rows, classes, reps) or the ValueError text."""
    a = np.asarray(a, dtype=np.int64)
    if a.view(np.uint64).max() <= 1:
        a = a.astype(bool)
    first = {}
    raw = [first.setdefault(row.tobytes(), j) for j, row in enumerate(a)]
    reps = np.array(list(first.values()), dtype=np.intp)
    rows, classes = a.take(reps, axis=0), reps.searchsorted(raw)
    m = rows.take(reps, axis=1)
    if not (rows == m.T.take(classes, axis=1)).all():
        return "adjacency must be symmetric"
    if m.diagonal().any():
        return "adjacency must have zero diagonal (no self-loops)"
    if rows.dtype != bool and (rows.min() < 0 or rows.max() > 1):
        return "adjacency entries must be 0 or 1"
    return rows.astype(float), classes, reps


def test_dense_checks_equal_class_form_checks():
    # 6,000 matrices, 1-5 vertices, entries in {-1, 0, 1, 2}: the graph or the
    # error text equals that of the class-form check on every one
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(6000):
        n = int(rng.integers(1, 6))
        p_bad = rng.choice([0.0, 0.05, 0.3])  # chance of an entry -1 or 2
        a = rng.choice([-1, 0, 1, 2], size=(n, n), p=[p_bad / 2, 0.5 - p_bad / 2,
                                                       0.5 - p_bad / 2, p_bad / 2])
        if rng.random() < 0.6:
            a = np.triu(a) + np.triu(a, 1).T
        if rng.random() < 0.7:
            np.fill_diagonal(a, 0)
        ref = _checked_in_class_form(n, a)
        try:
            g = Graph(n, a)
        except ValueError as exc:
            assert str(exc) == ref, a
            seen.add(ref)
            continue
        assert not isinstance(ref, str), a
        for mine, want in zip((g.rows, g.classes, g.reps), ref):
            assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes()
        seen.add("graph")
    assert len(seen) == 4  # every outcome occurs


def _dense_family(name, *args):
    """The family's adjacency matrix, built entry by entry."""
    if name == "star":
        a = np.zeros((args[0], args[0]), dtype=int)
        a[0, 1:] = a[1:, 0] = 1
        return a
    if name == "empty":
        return np.zeros((args[0], args[0]), dtype=int)
    if name == "multipartite":
        l, m = args
        block = np.ones((l, l), dtype=int) - np.eye(l, dtype=int)
        return np.kron(block, np.ones((m, m), dtype=int))
    n = 4 * args[0]
    return np.array([[int(abs(i - j) in (1, 4)) for j in range(n)] for i in range(n)])


FAMILIES = {"star": star_graph, "empty": empty_graph, "multipartite": multipartite_graph,
            "rectangular": rectangular_graph}
# every family member with n <= 12
SMALL_FAMILIES = ([("star", n) for n in range(2, 13)] + [("empty", n) for n in range(1, 13)]
                  + [("multipartite", l, m) for l in range(2, 13) for m in range(1, 13 // l + 1)]
                  + [("rectangular", 2), ("rectangular", 3)])


def _assert_matches_dense(g, a):
    """Every class-form reading of g equals its value on the dense matrix a."""
    a2 = a @ a
    # reps: the first vertex of each distinct row, ascending, and read-only
    np.testing.assert_array_equal(g.reps, np.sort(np.unique(a, axis=0, return_index=True)[1]))
    assert not g.reps.flags.writeable
    np.testing.assert_array_equal(g.degrees(), a.sum(axis=1))
    assert g.edge_count == a.sum() // 2
    for k in range(1, 6):
        assert trace_power(g, k) == np.trace(np.linalg.matrix_power(a, k))
    np.testing.assert_array_equal(adjacency_squared(g), a2)
    assert adjacency_square_sum(g) == a2.sum()
    # A v on integer entries, exact in any summation order; float64 also
    # where A has no ones
    v = np.random.default_rng(g.n).integers(-9, 10, g.n).astype(float)
    np.testing.assert_array_equal(g @ v, a @ v)
    assert (g @ v).dtype == np.float64
    assert g.adjacency.dtype == np.float64
    np.testing.assert_array_equal(g.adjacency, a)


@pytest.mark.parametrize("spec", SMALL_FAMILIES, ids=str)
def test_family_classes_match_dense_construction(spec):
    g, a = FAMILIES[spec[0]](*spec[1:]), _dense_family(*spec)
    dense = Graph(g.n, a)
    for name in ("rows", "classes", "reps", "gram"):
        mine, ref = getattr(g, name), getattr(dense, name)
        np.testing.assert_array_equal(mine, ref)
        assert mine.dtype == ref.dtype
    np.testing.assert_array_equal(g.adjacency, a)
    assert g == dense and hash(g) == hash(dense)
    _assert_matches_dense(g, a)


def test_graph_equality_and_hash():
    star = star_graph(5)
    from_edges = graph_from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)], "edges")
    assert star == from_edges and hash(star) == hash(from_edges)
    assert star != star_graph(6)
    assert star != empty_graph(5)
    assert star != "star(5)"
    assert {star, from_edges, empty_graph(5), empty_graph(5)} == {star, empty_graph(5)}
    table = {star: "star", empty_graph(5): "empty", multipartite_graph(2, 1): "edge"}
    assert table[from_edges] == "star"
    assert table[graph_from_edges(2, [(2, 1)])] == "edge"
    # two paths on 4 vertices, both twin-free: the same classes, other ones of U
    path = graph_from_edges(4, [(1, 2), (2, 3), (3, 4)])
    other = graph_from_edges(4, [(2, 1), (1, 3), (3, 4)])
    assert path != other and path != Graph(4, other.adjacency) and path == Graph(4, path.adjacency)


@st.composite
def edge_lists(draw):
    """(n, pairs): duplicates, both orientations, any order, isolated vertices
    and planted false twins (vertices copying the neighbours of a base vertex)."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda p: p[0] != p[1]), max_size=30))
    base = {j for p in pairs for j in p}
    for twin, copied in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                                      max_size=3)):
        if twin not in base:  # a vertex of no pair copies the row of another one
            pairs += [(twin, k) for i, k in pairs if i == copied and k != twin]
            pairs += [(k, twin) for k, i in pairs if i == copied and k != twin]
    if pairs:  # repeated pairs, some reversed
        pairs += draw(st.lists(st.sampled_from(pairs).flatmap(
            lambda p: st.sampled_from([p, p[::-1]])), max_size=5))
    return n, draw(st.permutations(pairs))


def _dense_from_pairs(n, pairs):
    a = np.zeros((n, n), dtype=int)
    for i, j in pairs:
        a[i - 1, j - 1] = a[j - 1, i - 1] = 1
    return a


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.sampled_from(["tuples", "array", "text"]))
@example((1, []), "tuples").via("no edges")
@example((4, []), "array").via("no edges")
@example((4, []), "text").via("no edges")
@example((5, [(3, 2)]), "array").via("isolated vertices before and after the edge")
@example((6, [(1, 2), (6, 5), (1, 5)]), "tuples").via("isolated vertices in the middle")
def test_edge_built_graph_equals_dense_built_graph(case, form):
    n, pairs = case
    a = _dense_from_pairs(n, pairs)
    dense = Graph(n, a, "label")
    if form == "text":
        g = parse_edge_list(f"{n}\n" + "".join(f"{i} {j}\n" for i, j in pairs), "label")
    else:
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) if form == "array" else pairs
        g = graph_from_edges(n, edges, "label")
    # the sum over the ones of U against the dense rows' product: on positive
    # float v nothing cancels, so the summation order moves only the last bits
    v = np.random.default_rng(n).random(n)
    assert g @ v == pytest.approx(dense @ v, rel=1e-15, abs=0.0)
    _assert_matches_dense(g, a)
    for mine, ref in zip((g.rows, g.classes, g.reps, g.degrees()),
                         (dense.rows, dense.classes, dense.reps, dense.degrees())):
        assert mine.dtype == ref.dtype and mine.shape == ref.shape
        assert mine.tobytes() == ref.tobytes()  # the same bits
        assert not mine.flags.writeable
    assert (g.n, g.edge_count, g.label) == (dense.n, dense.edge_count, dense.label)
    assert g == dense and hash(g) == hash(dense)


def test_edge_list_build_forms_no_dense_matrix():
    # an edge-built graph holds the ones of U, so a build forms no array of
    # n x n size: U alone (8 n^2 bytes here) would be eight times the bound
    rng = np.random.default_rng(24)
    n = 2048
    pairs = rng.integers(1, n + 1, (21000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    for build in (lambda: rectangular_graph(512), lambda: graph_from_edges(n, pairs)):
        tracemalloc.start()
        try:
            g = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == n and len(g.reps) == n  # twin-free: u = n
        assert "rows" not in vars(g)
        assert peak <= n * n  # an eighth of U's size


@st.composite
def twin_graphs(draw):
    """(a, perm): a random graph whose rows repeat those of a k-vertex base
    (planted false twins, scattered over the vertex order) and a relabelling."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 14))
    bits = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    b = np.triu(np.array(bits, dtype=int).reshape(k, k), 1)
    c = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))))
    return (b + b.T)[np.ix_(c, c)], perm


@settings(max_examples=150, deadline=None)
@given(twin_graphs())
def test_class_form_agrees_with_dense_matrix(case):
    a, perm = case
    g = Graph(len(a), a)
    _assert_matches_dense(g, a)
    # relabelling moves the per-vertex readings and keeps the invariants
    h = Graph(len(a), a[np.ix_(perm, perm)])
    np.testing.assert_array_equal(h.degrees(), g.degrees()[perm])
    np.testing.assert_array_equal(adjacency_squared(h), adjacency_squared(g)[np.ix_(perm, perm)])
    assert h.edge_count == g.edge_count
    assert adjacency_square_sum(h) == adjacency_square_sum(g)
    assert [trace_power(h, k) for k in range(1, 6)] == [trace_power(g, k) for k in range(1, 6)]


def test_adjacency_squared_is_exact():
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 13, 64, 200):
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
        g = Graph(n, a + a.T)
        a2 = adjacency_squared(g)
        assert a2.dtype == np.float64
        np.testing.assert_array_equal(a2, np.linalg.matrix_power(g.adjacency, 2))


def _planted_twins(seed, n, k):
    """Random graph on n vertices whose rows repeat those of a k-vertex base.

    Vertex j copies base vertex c[j], drawn at random, so the copies of one
    base vertex are false twins scattered over the vertex order.
    """
    rng = np.random.default_rng(seed)
    b = np.triu((rng.random((k, k)) < 0.5).astype(int), k=1)
    c = rng.integers(0, k, size=n)
    return Graph(n, (b + b.T)[np.ix_(c, c)], f"twins({n},{k})")


def _twin_free(seed, n):
    rng = np.random.default_rng(seed)
    while True:
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
        a = a + a.T
        if len(np.unique(a, axis=0)) == n:
            return Graph(n, a, f"twin-free({n})")


def _twin_free_edge_graph(seed, n):
    """A G(n, 1/2) graph built from its edge list, with no twins (u = n)."""
    a = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, k=1)
    g = graph_from_edges(n, np.argwhere(a) + 1, f"twin-free-edges({n})")
    assert len(g.reps) == n
    return g


@pytest.mark.parametrize("g", [star_graph(2048), multipartite_graph(4, 256), rectangular_graph(128),
                               _twin_free_edge_graph(29, 600)], ids=lambda g: g.label)
def test_builders_pass_the_dense_checks(g):
    # the families and graph_from_edges are not checked: their A passes the
    # checks of the dense constructor, at the sizes the benchmarks use
    assert Graph(g.n, g.adjacency.astype(np.int64)) == g


ROW_CLASS_GRAPHS = [star_graph(2), star_graph(9), empty_graph(1), empty_graph(7),
                    multipartite_graph(3, 4), rectangular_graph(6),
                    _planted_twins(3, 12, 4), _planted_twins(5, 40, 7),
                    _planted_twins(8, 65, 3), _twin_free(11, 30)]


@pytest.mark.parametrize("g", ROW_CLASS_GRAPHS, ids=lambda g: g.label)
def test_row_classes_group_identical_rows(g):
    rows, gram, cls = g.rows, g.gram, g.classes
    a = g.adjacency
    np.testing.assert_array_equal(rows[cls], a)
    np.testing.assert_array_equal(gram, rows @ rows.T)
    # classes are numbered in order of first occurrence
    _, first = np.unique(cls, return_index=True)
    assert np.all(np.diff(first) > 0)
    same_row = (a[:, None, :] == a[None, :, :]).all(axis=2)
    np.testing.assert_array_equal(cls[:, None] == cls[None, :], same_row)


@pytest.mark.parametrize("g", ROW_CLASS_GRAPHS, ids=lambda g: g.label)
def test_row_class_products_equal_matrix_powers(g):
    a = g.adjacency
    a2 = np.linalg.matrix_power(a, 2)
    np.testing.assert_array_equal(adjacency_squared(g), a2)
    assert trace_power(g, 3) == np.trace(np.linalg.matrix_power(a, 3))
    assert trace_power(g, 4) == np.trace(np.linalg.matrix_power(a, 4))
    n, eye = g.n, np.eye(g.n)
    for r in (-0.7, 0.0, 1.0, 3.0):
        x = np.exp(2.0 * r)
        expected = 0.5 * np.block([[x * eye, x * a], [x * a, x * a2 + np.exp(-2.0 * r) * eye]])
        cov = graph_state_covariance(g, r).cov
        assert cov.shape == (2 * n, 2 * n)
        np.testing.assert_array_equal(cov, expected)


def test_row_class_counts():
    assert star_graph(2048).gram.shape == (2, 2)
    assert empty_graph(64).gram.shape == (1, 1)
    assert multipartite_graph(4, 16).gram.shape == (4, 4)
    g = _twin_free(11, 30)
    np.testing.assert_array_equal(g.classes, np.arange(g.n))
    assert g.gram.shape == (30, 30)


def test_gram_is_formed_on_first_read():
    # commands that never read A^2 do not pay G = U U^T: n x n without twins
    g = _twin_free(12, 24)
    assert "gram" not in vars(g)
    saturate_displacement(g, 1.0, np.ones(2 * g.n))
    assert "gram" not in vars(g)
    qfi(g, 1.0, np.ones(g.n), "phase")
    assert "gram" in vars(g)
    np.testing.assert_array_equal(g.gram, g.rows @ g.rows.T)
    assert not g.gram.flags.writeable
    assert g.gram is vars(g)["gram"]


def test_rows_formed_on_first_read():
    # the displacement routes, the photon number, == and hash read the ones of
    # an edge-built U; the phase routes form U once
    g, dense = _twin_free_edge_graph(13, 40), Graph(40, _twin_free_edge_graph(13, 40).adjacency)
    f = np.random.default_rng(13).random(2 * g.n)
    cross_check(g, 1.0, f, "displacement")
    mean_photon_number(g, 1.0)
    assert g == dense and hash(g) == hash(dense)
    assert "rows" not in vars(g)
    qfi(g, 1.0, f[:g.n], "phase")
    assert "rows" in vars(g)
    assert not g.rows.flags.writeable
    assert g.rows.tobytes() == dense.rows.tobytes()
    assert g.rows is vars(g)["rows"]


def test_trace_power_star():
    g = star_graph(5)
    assert trace_power(g, 1) == 0
    assert trace_power(g, 2) == 8
    assert trace_power(g, 3) == 0
    assert trace_power(g, 4) == 32


def test_trace_power_small_cases():
    assert trace_power(star_graph(3), 4) == 8
    assert trace_power(empty_graph(6), 4) == 0
    with pytest.raises(ValueError):
        trace_power(star_graph(3), 0)


def test_trace_power_matches_eigenvalues():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
        g = Graph(n, a + a.T)
        ev = np.linalg.eigvalsh(g.adjacency)
        for k in (2, 3, 4, 5):
            assert trace_power(g, k) == pytest.approx(np.sum(ev**k), abs=1e-6)


def test_adjacency_square_sum_is_degree_square_sum():
    g = star_graph(5)
    # hub degree 4, four leaves of degree 1
    assert adjacency_square_sum(g) == 16 + 4


def test_chi_star_exact():
    for n in range(2, 30):
        g = star_graph(n)
        assert chi_phase(g) == pytest.approx(0.5, abs=0)
        assert chi_disp(g) == pytest.approx(n / 2, abs=1e-12)


def test_chi_single_edge():
    g = multipartite_graph(2, 1)
    assert chi_phase(g) == pytest.approx(0.5)
    assert chi_disp(g) == pytest.approx(1.0)


@pytest.mark.parametrize("l,m", [(2, 2), (3, 2), (4, 1), (5, 3)])
def test_chi_multipartite(l, m):
    g = multipartite_graph(l, m)
    # chi_phase of K_{m,...,m} depends on l only
    expected_phase = ((l - 1) ** 3 + 1) / (l**2 * (l - 1))
    assert chi_phase(g) == pytest.approx(expected_phase, rel=1e-12)
    assert chi_disp(g) == pytest.approx(m * (l - 1), rel=1e-12)


def test_chi_rectangular_large():
    g = rectangular_graph(50)
    n = g.n
    assert chi_phase(g) == pytest.approx((36 * n - 162) / (4 * n - 10) ** 2, rel=1e-12)


def test_chi_bounds_random():
    # chi_phase <= 1 and chi_disp <= n on arbitrary graphs
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
        a = a + a.T
        if not a.any():
            continue
        g = Graph(n, a)
        assert chi_phase(g) <= 1.0 + 1e-12
        assert 0.0 < chi_disp(g) <= n + 1e-12


def test_chi_rejects_edgeless():
    with pytest.raises(EdgelessGraphError):
        chi_phase(empty_graph(3))
    with pytest.raises(EdgelessGraphError):
        chi_disp(empty_graph(3))


def test_degree_trace_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = np.triu((rng.random((n, n)) < 0.4).astype(int), k=1)
        g = Graph(n, a + a.T)
        assert trace_power(g, 2) == g.degrees().sum()
        assert adjacency_square_sum(g) == (g.degrees() ** 2).sum()
