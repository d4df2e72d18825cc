"""Graph constructors, edge-list parsing, and trace invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvgraphsense.gaussian import graph_state_covariance
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
from cvgraphsense.homodyne import saturate_displacement
from cvgraphsense.qfi import qfi


def test_star_3_adjacency():
    g = star_graph(3)
    expected = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    np.testing.assert_array_equal(g.adjacency, expected)
    assert g.edge_count == 2
    assert g.label == "star(3)"


def test_star_spectrum():
    # star adjacency has eigenvalues +-sqrt(n-1) and zeros
    g = star_graph(5)
    evals = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
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
    evals = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
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


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, np.array([[1, 0], [0, 0]]))  # nonzero diagonal
    for entry in (2, -1):  # entries not 0/1
        with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
            Graph(2, np.array([[0, entry], [entry, 0]]))


@pytest.mark.parametrize("rows,classes,reps,message", [
    ([[0, 1, 1], [0, 0, 0]], [0, 1, 1], [0, 1], "adjacency must be symmetric"),
    # M = U[:, reps] is symmetric, but U[0, 2] differs from U[c[2], 0]
    ([[0, 1, 0], [1, 0, 0]], [0, 1, 1], [0, 1], "adjacency must be symmetric"),
    ([[1, 1], [1, 0]], [0, 1], [0, 1], "adjacency must have zero diagonal (no self-loops)"),
    ([[0, 2], [2, 0]], [0, 1], [0, 1], "adjacency entries must be 0 or 1"),
])
def test_class_form_validation(rows, classes, reps, message):
    rows, classes = np.array(rows, dtype=float), np.array(classes)
    with pytest.raises(ValueError) as exc:
        Graph.__new__(Graph)._store(len(classes), rows, classes, reps, "bad")
    assert str(exc.value) == message
    # the dense constructor of the same matrix reports the same rule
    with pytest.raises(ValueError) as exc:
        Graph(len(classes), rows[classes].astype(int))
    assert str(exc.value) == message


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
        ev = np.linalg.eigvalsh(g.adjacency.astype(float))
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
