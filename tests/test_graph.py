"""Graph constructors, edge-list parsing, and trace invariants."""

import numpy as np
import pytest

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
    _row_classes,
)


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
    rows, gram, cls = _row_classes(g)
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
    assert _row_classes(star_graph(2048))[1].shape == (2, 2)
    assert _row_classes(empty_graph(64))[1].shape == (1, 1)
    assert _row_classes(multipartite_graph(4, 16))[1].shape == (4, 4)
    g = _twin_free(11, 30)
    _, gram, cls = _row_classes(g)
    np.testing.assert_array_equal(cls, np.arange(g.n))
    assert gram.shape == (30, 30)


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
