"""Quantum Fisher information: closed forms, generic route, asymptotes."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvgraphsense.gaussian import (
    GaussianState,
    graph_state_covariance,
    mean_photon_number,
    squeeze_for_photon_budget,
)
from cvgraphsense.graph import (Graph, chi_disp, chi_phase, empty_graph, multipartite_graph,
                                rectangular_graph, star_graph)
from test_graph import ROW_CLASS_GRAPHS, _planted_twins, _twin_free_edge_graph, twin_graphs

from cvgraphsense.oracle import QFI_TOL, rel_error
from cvgraphsense.qfi import (
    cross_check,
    qfi,
    qfi_displacement,
    qfi_displacement_closed_form,
    qfi_displacement_star_asymptote,
    qfi_phase_closed_form,
    qfi_phase_equal_f,
    qfi_phase_generic,
    qfi_phase_separable_asymptote,
    qfi_phase_star_asymptote,
)


def _random_graph(rng, n):
    a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
    return Graph(n, a + a.T)


# --- phase sensing ---------------------------------------------------------


def test_phase_single_mode():
    # lone squeezed mode: F = 2 sinh^2(2r)
    for r in (0.3, 1.0, 2.0):
        got = qfi_phase_closed_form(empty_graph(1), r, [1.0])
        assert got == pytest.approx(2 * np.sinh(2 * r) ** 2, rel=1e-13)


def test_phase_star3_vacuum_squeeze():
    # r = 0 kills the sinh term; remaining traces give (1+1)*4 + 8/2 = 12
    assert qfi_phase_closed_form(star_graph(3), 0.0, np.ones(3)) == pytest.approx(12.0)


def test_phase_inert_modes():
    # zero weight on every mode that has edges or squeezing contributes nothing
    got = qfi_phase_closed_form(empty_graph(3), 0.0, [1.0, 0.0, 0.0])
    assert got == pytest.approx(0.0, abs=1e-15)


def test_phase_rejects_zero_weights():
    with pytest.raises(ValueError):
        qfi_phase_closed_form(star_graph(3), 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        qfi_phase_closed_form(star_graph(3), 1.0, [1.0, 2.0])


def test_phase_equal_f_reduction():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        g = _random_graph(rng, n)
        r = float(rng.uniform(0, 2))
        fval = float(rng.uniform(0.2, 2.0))
        # F = 2 n f^2 sinh^2(2r) + (1 + e^{4r}) f^2 Tr A^2 + (e^{4r}/2) f^2 Tr A^4
        a, fsq, e4r = g.adjacency, fval**2, np.exp(4.0 * r)
        t2, t4 = np.trace(a @ a), np.trace(np.linalg.matrix_power(a, 4))
        reduced = 2.0 * n * fsq * np.sinh(2.0 * r) ** 2 + (1.0 + e4r) * fsq * t2 + 0.5 * e4r * fsq * t4
        assert qfi_phase_equal_f(g, r, fval) == pytest.approx(reduced, rel=1e-12)


def test_phase_generic_matches_single_mode():
    for r in (0.5, 1.5):
        state = graph_state_covariance(empty_graph(1), r)
        got = qfi_phase_generic(state, [1.0])
        assert got == pytest.approx(2 * np.sinh(2 * r) ** 2, rel=1e-10)


def test_phase_generic_star3():
    state = graph_state_covariance(star_graph(3), 0.0)
    assert qfi_phase_generic(state, np.ones(3)) == pytest.approx(12.0, rel=1e-10)


def test_phase_generic_vacuum_zero():
    state = graph_state_covariance(empty_graph(2), 0.0)
    assert qfi_phase_generic(state, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("g", [empty_graph(1), empty_graph(3), star_graph(3)],
                         ids=lambda g: g.label)
def test_phase_generic_keeps_its_digits_at_small_r(g):
    # the generic route once summed d_a^2 over the q and p halves of
    # cov - I/2, which cancel: 2.9e-08 relative on empty(3) at r = 1e-9
    f = np.ones(g.n)
    for r in np.geomspace(1e-3, 1e-12, 10):
        generic = qfi_phase_generic(graph_state_covariance(g, r), f)
        assert generic == pytest.approx(qfi_phase_closed_form(g, r, f), rel=1e-15, abs=0)


def test_phase_closed_vs_generic_random():
    rng = np.random.default_rng(57)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        g = _random_graph(rng, n)
        r = float(rng.uniform(0, 2))
        f = rng.uniform(-2, 2, n)
        if not np.any(f):
            f[0] = 1.0
        closed = qfi_phase_closed_form(g, r, f)
        generic = qfi_phase_generic(graph_state_covariance(g, r), f)
        denom = max(abs(closed), abs(generic), 1e-30)
        assert abs(closed - generic) / denom < 1e-9


def _elementwise_phase_qfi(g, r, f):
    """The closed form summed entry by entry over n x n arrays."""
    f = np.asarray(f, dtype=float)
    a = g.adjacency
    a2 = a @ a
    e4r = np.exp(4.0 * r)
    ff = np.outer(f, f)
    return (2.0 * np.sinh(2.0 * r) ** 2 * float(f @ f)
            + float(np.sum((f[:, None] ** 2 + e4r * ff) * a))
            + 0.5 * e4r * float(np.sum(ff * a2 * a2)))


@pytest.mark.parametrize("g", ROW_CLASS_GRAPHS, ids=lambda g: g.label)
def test_phase_closed_form_matches_elementwise_sum(g):
    # with f = 1 the second sum is (1 + e^{4r}) Tr(A^2) either way, but the
    # closed form rounds it per term and the reference per entry, so the two
    # may differ in the last place
    rng = np.random.default_rng(g.n)
    for r in (-0.7, 0.0, 1e-5, 0.3, 1.0, 3.0):
        ref = _elementwise_phase_qfi(g, r, np.ones(g.n))
        assert abs(qfi_phase_closed_form(g, r, np.ones(g.n)) - ref) <= np.spacing(ref)
        f = rng.standard_normal(g.n)
        ref = _elementwise_phase_qfi(g, r, f)
        assert abs(qfi_phase_closed_form(g, r, f) - ref) <= 1e-13 * abs(ref)


def test_phase_closed_form_memory_on_large_star():
    # the star's two row classes keep every array at 2 x n or n
    tracemalloc.start()
    try:
        qfi_phase_closed_form(star_graph(2048), 1.0, np.ones(2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("make", [star_graph, empty_graph, lambda n: multipartite_graph(4, n // 4)],
                         ids=["star", "empty", "multipartite"])
def test_class_path_allocates_no_square_array(make):
    # one n x n bool array would take 1 GiB at n = 2^15; the class path keeps
    # every array at u x n or u x u
    n = 2 ** 15
    tracemalloc.start()
    try:
        g = make(n)
        r = squeeze_for_photon_budget(g, mean_photon_number(g, 0.5))
        values = [qfi(g, r, np.ones(n), "phase"), qfi(g, r, np.ones(2 * n), "displacement"),
                  g.edge_count]
        if g.edge_count:
            values += [chi_phase(g), chi_disp(g)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == pytest.approx(0.5, rel=1e-9)
    assert all(np.isfinite(values))
    assert peak < 16e6


def _omega(n):
    z, i = np.zeros((n, n)), np.eye(n)
    return np.block([[z, i], [-i, z]])


@pytest.mark.parametrize("g", [star_graph(9), rectangular_graph(6), multipartite_graph(4, 64)],
                         ids=lambda g: g.label)
@pytest.mark.parametrize("r", [0.0, 1.0, 3.0])
def test_purity_premise_symplectic(g, r):
    # qfi_phase_generic assumes S^-1 = -4 Omega S Omega, i.e. 4 S Omega S = Omega
    s = graph_state_covariance(g, r).cov
    omega = _omega(g.n)
    residual = np.max(np.abs(4.0 * s @ omega @ s - omega)) / np.max(np.abs(s)) ** 2
    assert residual <= 1e-12


def test_phase_generic_needs_purity():
    # on a mixed state the inverse-free form is not the trace formula
    g = star_graph(4)
    f = np.array([1.0, 0.5, -0.3, 2.0])
    state = graph_state_covariance(g, 0.8)
    # built from M alone: dataclasses.replace(state, cov=M) would keep the graph's diagonal
    m = 1.5 * state.cov
    e = np.diag(m) - 0.5
    mixed = GaussianState(4, m, e, e[:4] + e[4:])
    d = np.concatenate((f, f))
    assert rel_error(qfi_phase_generic(mixed, f), 2.0 * d @ (m * m) @ d - f @ f) <= 1e-12
    gmat = np.block([[np.zeros((4, 4)), np.diag(f)], [-np.diag(f), np.zeros((4, 4))]])
    for st, pure in ((state, True), (mixed, False)):
        s = st.cov
        trace_form = 0.5 * np.trace(gmat @ gmat - gmat @ np.linalg.solve(s, gmat @ s))
        agrees = qfi_phase_generic(st, f) == pytest.approx(trace_form, rel=1e-9)
        assert agrees == pure


# --- block reads of a graph state vs reads of its matrix -------------------

BLOCK_R = [-3.0, 1e-9, 1.0, 8.0]


def _assert_block_reads_match_matrix_reads(g, r, rng):
    """Both routes on the graph state's q/p blocks against the same routes on
    a state built from its matrix, and, for f drawn away from the squeezed
    nullifiers, against the closed forms."""
    for modality, route in (("phase", qfi_phase_generic), ("displacement", qfi_displacement)):
        f = rng.uniform(-2.0, 2.0, g.n if modality == "phase" else 2 * g.n)
        state = graph_state_covariance(g, r)
        blocks = route(state, f)
        matrix = route(dataclasses.replace(state, cov=state.cov), f)
        assert route(state, f) == blocks  # reading cov leaves the graph state on its blocks
        assert rel_error(blocks, matrix) <= 1e-12
        assert rel_error(blocks, qfi(g, r, f, modality)) <= QFI_TOL


@pytest.mark.parametrize("r", BLOCK_R)
@pytest.mark.parametrize("g", [star_graph(2), star_graph(12), multipartite_graph(3, 4),
                               multipartite_graph(2, 1), rectangular_graph(3), empty_graph(1),
                               empty_graph(12), rectangular_graph(80), multipartite_graph(3, 200)],
                         ids=lambda g: g.label)  # the last two span several 256-row blocks
def test_block_reads_match_matrix_reads_on_families(g, r):
    _assert_block_reads_match_matrix_reads(g, r, np.random.default_rng(g.n))


@pytest.mark.parametrize("r", BLOCK_R)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=twin_graphs().filter(lambda case: len(case[0]) <= 12), seed=st.integers(0, 2**32 - 1))
def test_block_reads_match_matrix_reads_with_planted_twins(r, case, seed):
    a, _ = case
    _assert_block_reads_match_matrix_reads(Graph(len(a), a), r, np.random.default_rng(seed))


def _phase_generic_on_expanded_blocks(state, f):
    """qfi_phase_generic's graph-state route with each 256-row block of A^2 expanded to
    n columns before it is scaled and squared: the reference for squaring on class rows."""
    sq_f, e, n, g = np.square(f), state.excess_diag, state.n, state.graph
    h, c, pp_f = 0.5 * np.exp(2.0 * state.r), g.classes, np.empty(n)
    for s in range(0, n, 256):
        block = np.square(h * g.gram.take(c[s:s + 256], axis=0).take(c, axis=1))
        np.fill_diagonal(block[:, s:], 0.0)
        pp_f[s:s + 256] = block @ f
    diag = float(sq_f @ np.square(e[:n])) + float(sq_f @ np.square(e[n:]))
    qp = 2.0 * h * h * float(f @ (g @ f))
    return 2.0 * ((diag + qp) + float(f @ pp_f)) + 2.0 * float(sq_f @ state.mode_excess)


@pytest.mark.parametrize("g", [star_graph(1024), multipartite_graph(4, 256),
                               _twin_free_edge_graph(1, 300), _twin_free_edge_graph(2, 520),
                               _planted_twins(9, 600, 5), rectangular_graph(70)],
                         ids=lambda g: g.label)
def test_phase_generic_squares_class_rows_bit_identically(g):
    # h G squared on the u class columns, then expanded: each entry rounds as before
    rng = np.random.default_rng(g.n)
    for r in (-1.0, 1e-9, 1.0, 3.0):
        state = graph_state_covariance(g, r)
        for f in (np.ones(g.n), rng.uniform(-2.0, 2.0, g.n)):
            assert qfi_phase_generic(state, f) == _phase_generic_on_expanded_blocks(state, f)


def test_graph_state_forms_its_matrix_on_first_read():
    state = graph_state_covariance(star_graph(5), 0.7)
    assert "cov" not in vars(state)
    assert qfi_displacement(state, np.ones(10)) > 0 and "cov" not in vars(state)
    assert state.cov is state.cov
    replaced = dataclasses.replace(state, n=5)  # built from the formed matrix
    assert replaced.graph is None and replaced.cov is state.cov


# --- displacement sensing --------------------------------------------------


def test_displacement_vacuum():
    state = graph_state_covariance(empty_graph(1), 0.0)
    assert qfi_displacement(state, [1.0, 0.0]) == pytest.approx(2.0)
    assert qfi_displacement(state, [0.0, 1.0]) == pytest.approx(2.0)


def test_displacement_star3_uniform():
    state = graph_state_covariance(star_graph(3), 0.0)
    assert qfi_displacement(state, np.ones(6)) == pytest.approx(40.0)


def test_displacement_closed_form_empty():
    # decoupled modes: 2 e^{2r} |f_q|^2 + 2 e^{-2r} |f_p|^2
    g = empty_graph(4)
    r = 0.8
    f = np.ones(8)
    expected = 2 * 4 * (np.exp(2 * r) + np.exp(-2 * r))
    assert qfi_displacement_closed_form(g, r, f) == pytest.approx(expected, rel=1e-13)


def test_displacement_closed_vs_quadratic_random():
    rng = np.random.default_rng(58)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        g = _random_graph(rng, n)
        r = float(rng.uniform(0, 2))
        f = rng.uniform(-2, 2, 2 * n)
        if not np.any(f):
            f[0] = 1.0
        closed = qfi_displacement_closed_form(g, r, f)
        quad = qfi_displacement(graph_state_covariance(g, r), f)
        denom = max(abs(closed), abs(quad), 1e-30)
        assert abs(closed - quad) / denom < 1e-9


@pytest.mark.parametrize("r", [3.0, 5.0, 8.0, 10.0])
def test_displacement_closed_form_along_nullifiers(r):
    # f_q = -A f_p on star(3): only the antisqueezed square vanishes, so the
    # QFI is 2 e^{-2r} |f_p|^2 exactly; an expansion in e^{2r} terms cancels
    f = [0.0, -1.0, -1.0, 1.0, 0.0, 0.0]
    assert qfi_displacement_closed_form(star_graph(3), r, f) == pytest.approx(
        2.0 * np.exp(-2.0 * r), rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="the phase closed form cancels along the squeezed "
                   "direction f = (1, -1) of one edge")
def test_phase_closed_form_along_squeezed_direction():
    # on K2 with f = (1, -1) the exact QFI is e^{-4r}; the closed form's
    # O(e^{4r}) terms cancel and leave 6.1441970e-06 against 6.1442124e-06 at r = 3
    r = 3.0
    g = Graph(2, [[0, 1], [1, 0]])
    assert qfi_phase_closed_form(g, r, [1.0, -1.0]) == pytest.approx(
        math.exp(-4 * r), rel=1e-9, abs=0.0)


def test_displacement_rejects_wrong_length():
    state = graph_state_covariance(star_graph(3), 1.0)
    with pytest.raises(ValueError):
        qfi_displacement(state, np.ones(3))


# --- asymptotes and scaling limits -----------------------------------------


def test_asymptote_arithmetic():
    assert qfi_phase_star_asymptote(10, 10.0, 1.0) == pytest.approx(1600.0 / 9)
    assert qfi_phase_separable_asymptote(10, 10.0, 1.0) == pytest.approx(80.0)
    assert qfi_displacement_star_asymptote(10, 3.0, 1.0) == pytest.approx(80.0)
    assert qfi_displacement_star_asymptote(10, 30.0, 1.0) == pytest.approx(800.0)


def test_phase_star_asymptote_large_r_limit():
    # fixed n = 10: exact/asymptote -> 9(n/2 + S2 + S4/2)/(n + S2)^2 with
    # S2 = Tr A^2, S4 = Tr A^4; for the star that is 936/784
    g = star_graph(10)
    f = np.ones(10)
    ratios = []
    for r in (1.0, 2.0, 3.0, 4.0):
        nbar = mean_photon_number(g, r)
        ratios.append(qfi_phase_closed_form(g, r, f)
                      / qfi_phase_star_asymptote(10, nbar, 1.0))
    assert ratios[-1] == pytest.approx(936.0 / 784.0, rel=1e-3)
    # monotone approach from above the large-r limit
    diffs = np.abs(np.array(ratios) - 936.0 / 784.0)
    assert np.all(np.diff(diffs) < 0)


def test_separable_asymptote_is_coth_squared():
    # n uncoupled modes: exact/asymptote = coth^2 r exactly
    n = 6
    g = empty_graph(n)
    for r in (0.5, 1.0, 2.0):
        nbar = mean_photon_number(g, r)
        exact = qfi_phase_closed_form(g, r, np.ones(n))
        asym = qfi_phase_separable_asymptote(n, nbar, 1.0)
        assert exact / asym == pytest.approx(1.0 / np.tanh(r) ** 2, rel=1e-12)


def test_displacement_star_asymptote_large_r_limit():
    # fixed n = 10 limit: 3(n^2 + 4n - 4)/(n(3n - 2)) = 408/280
    g = star_graph(10)
    f = np.ones(20)
    r = 4.0
    nbar = mean_photon_number(g, r)
    exact = qfi_displacement_closed_form(g, r, f)
    asym = qfi_displacement_star_asymptote(10, nbar, 1.0)
    assert exact / asym == pytest.approx(408.0 / 280.0, rel=1e-3)


def test_star_dominates_separable_at_fixed_budget():
    # at equal photon number the star beats n separable modes (ties at n = 2)
    for n in (2, 4, 8, 12):
        g = star_graph(n)
        f = np.ones(n)
        for nbar in np.geomspace(max(2.0, n), 500.0, 6):
            r_star = squeeze_for_photon_budget(g, nbar)
            r_sep = squeeze_for_photon_budget(empty_graph(n), nbar)
            star = qfi_phase_closed_form(g, r_star, f)
            sep = qfi_phase_closed_form(empty_graph(n), r_sep, f)
            assert star >= sep * (1.0 - 1e-9)


def test_displacement_star_dominates_separable():
    for n in (2, 4, 8):
        g = star_graph(n)
        f = np.ones(2 * n)
        for nbar in np.geomspace(max(2.0, n), 500.0, 5):
            r_star = squeeze_for_photon_budget(g, nbar)
            r_sep = squeeze_for_photon_budget(empty_graph(n), nbar)
            star = qfi_displacement_closed_form(g, r_star, f)
            sep = qfi_displacement_closed_form(empty_graph(n), r_sep, f)
            assert star >= sep * (1.0 - 1e-9)


def test_star_asymptote_rejects_bad_n():
    with pytest.raises(ValueError):
        qfi_displacement_star_asymptote(1, 10.0, 1.0)


# --- dispatch by modality ---------------------------------------------------


def test_qfi_dispatches_to_closed_forms():
    g = star_graph(4)
    f = np.array([1.0, 0.5, -0.3, 2.0])
    assert qfi(g, 0.7, f, "phase") == qfi_phase_closed_form(g, 0.7, f)
    f2 = np.concatenate([f, f[::-1]])
    assert qfi(g, 0.7, f2, "displacement") == qfi_displacement_closed_form(g, 0.7, f2)
    assert qfi(g, 0.7, f2, "displacement") == pytest.approx(
        qfi_displacement(graph_state_covariance(g, 0.7), f2), rel=1e-12)


def test_qfi_rejects_unknown_modality():
    with pytest.raises(ValueError, match="unknown modality"):
        qfi(star_graph(3), 1.0, np.ones(3), "amplitude")


# --- the cross-check pair ---------------------------------------------------


@pytest.mark.parametrize("modality", ["phase", "displacement"])
def test_cross_check_keeps_the_digits_of_a_subnormal_qfi(modality):
    # f = 1e-161 squares to 1e-322, below the normal range: both routes must
    # land within two steps of the subnormal grid of c^2 F(f = 1)
    g, c = star_graph(3), 1e-161
    ones = np.ones(g.n if modality == "phase" else 2 * g.n)
    reference = qfi(g, 1.0, ones, modality) * c * c
    closed, cross = cross_check(g, 1.0, c * ones, modality)
    assert abs(closed - reference) <= 2 * math.ulp(0.0)
    assert abs(cross - reference) <= 2 * math.ulp(0.0)


@pytest.mark.parametrize("modality", ["phase", "displacement"])
def test_cross_check_scaling_leaves_normal_results_bit_identical(modality):
    rng = np.random.default_rng(2020)
    for n in (1, 2, 5, 8):
        for r in (-3.0, 1e-9, 0.7, 3.0):
            g = _random_graph(rng, n)
            length = n if modality == "phase" else 2 * n
            f = rng.standard_normal(length) * 10.0 ** rng.uniform(-5, 5)
            generic = qfi_phase_generic if modality == "phase" else qfi_displacement
            expected = (qfi(g, r, f, modality), generic(graph_state_covariance(g, r), f))
            assert cross_check(g, r, f, modality) == expected
