"""Quantum Fisher information: closed forms, generic route, asymptotes."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cvgraphsense.gaussian import (
    graph_state_covariance,
    mean_photon_number,
    squeeze_for_photon_budget,
)
from cvgraphsense.graph import (Graph, chi_disp, chi_phase, empty_graph, multipartite_graph,
                                rectangular_graph, star_graph)
from test_graph import ROW_CLASS_GRAPHS

from cvgraphsense.qfi import (
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
        full = qfi_phase_closed_form(g, r, np.full(n, fval))
        reduced = qfi_phase_equal_f(g, r, fval)
        assert reduced == pytest.approx(full, rel=1e-12)


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
    a = g.adjacency.astype(float)
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
    mixed = dataclasses.replace(state, cov=1.5 * state.cov)
    gmat = np.block([[np.zeros((4, 4)), np.diag(f)], [-np.diag(f), np.zeros((4, 4))]])
    for st, pure in ((state, True), (mixed, False)):
        s = st.cov
        trace_form = 0.5 * np.trace(gmat @ gmat - gmat @ np.linalg.solve(s, gmat @ s))
        agrees = qfi_phase_generic(st, f) == pytest.approx(trace_form, rel=1e-9)
        assert agrees == pure


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
