"""Homodyne moment construction, Fisher information, angle optimization."""

import tracemalloc
import warnings

import numpy as np
import pytest

from cvgraphsense import homodyne
from cvgraphsense.graph import Graph, empty_graph, multipartite_graph, star_graph
from cvgraphsense.homodyne import (
    HomodyneSetting,
    MeasurementMoments,
    diag_trig_matrices,
    displacement_measurement_moments,
    fi_monte_carlo,
    fi_star_ansatz,
    gaussian_fisher_information,
    optimize_angles,
    phase_measurement_moments,
    saturate_displacement,
)
from cvgraphsense.qfi import qfi


def test_setting_reduces_modulo_2pi():
    s = HomodyneSetting(np.array([2 * np.pi + 0.25, -0.5]))
    np.testing.assert_allclose(s.theta, [0.25, 2 * np.pi - 0.5], rtol=1e-12)


def test_diag_trig_no_rotation():
    g1, f1, g2, f2 = diag_trig_matrices([1.0, 2.0], 0.0, [0.3, 0.4])
    np.testing.assert_allclose(g1, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f1, np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(np.diag(g2), np.cos([0.3, 0.4]), rtol=1e-15)
    np.testing.assert_allclose(np.diag(f2), np.sin([0.3, 0.4]), rtol=1e-15)


def test_diag_trig_quarter_turn():
    _, _, g2, f2 = diag_trig_matrices([1.0], 0.0, [np.pi / 2])
    assert g2[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert f2[0, 0] == pytest.approx(1.0)


def test_diag_trig_phase_rotation():
    g1, f1, _, _ = diag_trig_matrices([1.0, 2.0], 0.1, [0.0, 0.0])
    np.testing.assert_allclose(np.diag(g1), np.cos([0.1, 0.2]), rtol=1e-15)
    np.testing.assert_allclose(np.diag(f1), np.sin([0.1, 0.2]), rtol=1e-15)


def test_diag_trig_shape_mismatch():
    with pytest.raises(ValueError):
        diag_trig_matrices([1.0, 2.0], 0.0, [0.3])


# --- phase moments ----------------------------------------------------------


def test_phase_sigma_single_mode_q_axis():
    # theta = 0 measures p-hat, which is squeezed on a lone mode
    r = 0.9
    m = phase_measurement_moments(empty_graph(1), r, [1.0], 0.0, HomodyneSetting([0.0]))
    assert m.sigma_m[0, 0] == pytest.approx(0.5 * np.exp(-2 * r), rel=1e-13)
    np.testing.assert_array_equal(m.omega, [0.0])
    np.testing.assert_array_equal(m.d_omega, [0.0])


def test_phase_sigma_single_mode_p_axis():
    r = 0.9
    m = phase_measurement_moments(empty_graph(1), r, [1.0], 0.0,
                                  HomodyneSetting([np.pi / 2]))
    assert m.sigma_m[0, 0] == pytest.approx(0.5 * np.exp(2 * r), rel=1e-13)


def test_phase_sigma_depends_on_theta_minus_f_phi():
    # the landscape is a rigid shift: moments at (phi, theta) match
    # (0, theta - f*phi) entry for entry
    g = star_graph(3)
    f = np.array([1.0, 0.5, 0.5])
    theta = np.array([0.3, 1.1, 2.0])
    phi = 0.47
    shifted = phase_measurement_moments(g, 1.2, f, 0.0, HomodyneSetting(theta - f * phi))
    direct = phase_measurement_moments(g, 1.2, f, phi, HomodyneSetting(theta))
    np.testing.assert_allclose(direct.sigma_m, shifted.sigma_m, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(direct.d_sigma, shifted.d_sigma, rtol=1e-12, atol=1e-15)


def test_phase_d_sigma_matches_finite_difference():
    g = star_graph(4)
    f = np.array([1.0, 0.7, -0.4, 1.3])
    theta = HomodyneSetting([0.2, 0.9, 1.7, 2.5])
    r, phi, h = 0.8, 0.6, 1e-6
    up = phase_measurement_moments(g, r, f, phi + h, theta)
    dn = phase_measurement_moments(g, r, f, phi - h, theta)
    mid = phase_measurement_moments(g, r, f, phi, theta)
    fd = (up.sigma_m - dn.sigma_m) / (2 * h)
    np.testing.assert_allclose(mid.d_sigma, fd, atol=1e-7)


def test_phase_rejects_bad_lengths():
    with pytest.raises(ValueError):
        phase_measurement_moments(star_graph(3), 1.0, [1.0], 0.0,
                                  HomodyneSetting([0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        phase_measurement_moments(star_graph(3), 1.0, [1.0, 1.0, 1.0], 0.0,
                                  HomodyneSetting([0.0]))


# --- displacement moments ---------------------------------------------------


def test_displacement_mean_vacuum():
    m = displacement_measurement_moments(empty_graph(1), 0.0, [1.0, 0.0], 2.0,
                                         HomodyneSetting([0.0]))
    np.testing.assert_allclose(m.omega, [-2.0], rtol=1e-14)
    np.testing.assert_allclose(m.d_omega, [-1.0], rtol=1e-14)
    assert m.sigma_m[0, 0] == pytest.approx(0.5)
    assert not m.d_sigma.any()


def test_displacement_mean_p_quadrature():
    r, phi = 1.0, 0.73
    m = displacement_measurement_moments(empty_graph(1), r, [0.0, 1.0], phi,
                                         HomodyneSetting([np.pi / 2]))
    np.testing.assert_allclose(m.omega, [phi], rtol=1e-13)
    assert m.sigma_m[0, 0] == pytest.approx(0.5 * np.exp(2 * r), rel=1e-13)


def test_displacement_sigma_matches_quadrature_projection():
    # sigma_M must equal B cov B^T for B = [diag sin | diag cos]
    from cvgraphsense.gaussian import graph_state_covariance

    g = star_graph(4)
    r = 0.6
    theta = np.array([0.1, 0.8, 1.9, 2.7])
    m = displacement_measurement_moments(g, r, np.ones(8), 0.3, HomodyneSetting(theta))
    cov = graph_state_covariance(g, r).cov
    b = np.hstack([np.diag(np.sin(theta)), np.diag(np.cos(theta))])
    np.testing.assert_allclose(m.sigma_m, b @ cov @ b.T, rtol=1e-12, atol=1e-14)


def test_displacement_rejects_short_f():
    with pytest.raises(ValueError):
        displacement_measurement_moments(star_graph(3), 1.0, [1.0, 1.0, 1.0], 0.0,
                                         HomodyneSetting([0.0, 0.0, 0.0]))


# --- Fisher information -----------------------------------------------------


def test_fi_location_model():
    m = MeasurementMoments(omega=np.array([0.0]), sigma_m=np.array([[4.0]]),
                           d_omega=np.array([1.0]), d_sigma=np.zeros((1, 1)))
    assert gaussian_fisher_information(m) == pytest.approx(0.25)


def test_fi_scale_model():
    # scalar sigma = s^2 with d sigma/ds = 2s at s = 1: FI = 2
    m = MeasurementMoments(omega=np.array([0.0]), sigma_m=np.array([[1.0]]),
                           d_omega=np.zeros(1), d_sigma=np.array([[2.0]]))
    assert gaussian_fisher_information(m) == pytest.approx(2.0)


def test_fi_zero_derivatives():
    m = MeasurementMoments(omega=np.zeros(2), sigma_m=np.eye(2),
                           d_omega=np.zeros(2), d_sigma=np.zeros((2, 2)))
    assert gaussian_fisher_information(m) == 0.0


def test_fi_rejects_indefinite_sigma():
    m = MeasurementMoments(omega=np.zeros(1), sigma_m=np.array([[-1.0]]),
                           d_omega=np.ones(1), d_sigma=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_fisher_information(m)


def test_fi_never_beats_qfi_phase():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = star_graph(n)
        r = float(rng.uniform(0.1, 2.0))
        f = np.ones(n)
        theta = HomodyneSetting(rng.uniform(0, 2 * np.pi, n))
        fi = gaussian_fisher_information(
            phase_measurement_moments(g, r, f, 0.0, theta))
        assert fi <= qfi(g, r, f, "phase") * (1 + 1e-9)


def test_fi_never_beats_qfi_displacement():
    rng = np.random.default_rng(32)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = star_graph(n)
        r = float(rng.uniform(0.1, 2.0))
        f = np.ones(2 * n)
        theta = HomodyneSetting(rng.uniform(0, 2 * np.pi, n))
        fi = gaussian_fisher_information(
            displacement_measurement_moments(g, r, f, 0.0, theta))
        assert fi <= qfi(g, r, f, "displacement") * (1 + 1e-9)


def test_phase_fi_leaf_permutation_invariant():
    g = star_graph(4)
    f = np.ones(4)
    a = gaussian_fisher_information(phase_measurement_moments(
        g, 1.0, f, 0.0, HomodyneSetting([0.4, 1.0, 2.0, 3.0])))
    b = gaussian_fisher_information(phase_measurement_moments(
        g, 1.0, f, 0.0, HomodyneSetting([0.4, 3.0, 1.0, 2.0])))
    assert a == pytest.approx(b, rel=1e-12)


def test_displacement_fi_independent_of_phi():
    g = star_graph(3)
    f = np.ones(6)
    theta = HomodyneSetting([0.2, 1.4, 2.6])
    a = gaussian_fisher_information(
        displacement_measurement_moments(g, 1.0, f, 0.0, theta))
    b = gaussian_fisher_information(
        displacement_measurement_moments(g, 1.0, f, 1.0, theta))
    assert a == b


# --- two-angle ansatz and optimization --------------------------------------


def test_ansatz_matches_full_vector():
    g = star_graph(5)
    f = np.ones(5)
    alpha, beta = 0.7, 2.1
    via_ansatz = fi_star_ansatz(g, 1.0, f, 0.0, alpha, beta, "phase")
    theta = HomodyneSetting([alpha] + [beta] * 4)
    via_vector = gaussian_fisher_information(
        phase_measurement_moments(g, 1.0, f, 0.0, theta))
    assert via_ansatz == pytest.approx(via_vector, rel=1e-12)


def test_ansatz_rejects_non_star():
    from cvgraphsense.graph import multipartite_graph

    with pytest.raises(ValueError, match="star"):
        fi_star_ansatz(multipartite_graph(3, 2), 1.0, np.ones(6), 0.0,
                       0.1, 0.2, "phase")


def test_ansatz_accepts_exactly_the_stars_with_hub_at_vertex_1():
    # every labelled graph on n <= 5 vertices (1 + 2 + 8 + 64 + 1024 = 1099)
    checked = 0
    for n in range(1, 6):
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        for mask in range(2 ** len(pairs)):
            a = np.zeros((n, n), dtype=int)
            for bit, (j, k) in enumerate(pairs):
                a[j, k] = a[k, j] = mask >> bit & 1
            g = Graph(n, a)
            dense = g.adjacency
            star = bool(dense[0, 1:].all()) and not dense[1:, 1:].any()
            try:
                fi_star_ansatz(g, 1.0, np.ones(n), 0.0, 0.1, 0.2, "phase")
                accepted = True
            except ValueError as exc:
                assert str(exc) == "angle ansatz requires a star graph with hub at vertex 1"
                accepted = False
            assert accepted == star, a
            checked += 1
    assert checked == 1099


def test_ansatz_rejects_unknown_modality():
    with pytest.raises(ValueError):
        fi_star_ansatz(star_graph(3), 1.0, np.ones(3), 0.0, 0.1, 0.2, "amplitude")


def test_optimize_single_mode_displacement():
    # lone mode, signal on p only: optimum measures p exactly and reaches
    # the QFI 2 e^{-2r}
    g = empty_graph(1)
    r = 0.7
    f = np.array([0.0, 1.0])
    (alpha,), fi = saturate_displacement(g, r, f)
    assert fi == pytest.approx(2 * np.exp(-2 * r), rel=1e-9)
    assert min(abs(alpha - np.pi / 2), abs(alpha - 3 * np.pi / 2)) < 1e-4


def test_optimize_phase_star4():
    g = star_graph(4)
    f = np.ones(4)
    _, _, fi = optimize_angles(g, 1.0, f, 0.0)
    q = qfi(g, 1.0, f, "phase")
    assert 1.8 <= q / fi <= 2.2
    assert fi <= q


def test_optimize_displacement_saturates():
    for n in (2, 4, 6):
        g = star_graph(n)
        f = np.ones(2 * n)
        _, fi = saturate_displacement(g, 1.0, f)
        q = qfi(g, 1.0, f, "displacement")
        assert fi / q >= 0.99


def test_optimize_deterministic():
    g = star_graph(3)
    f = np.ones(3)
    first = optimize_angles(g, 1.0, f, 0.0)
    second = optimize_angles(g, 1.0, f, 0.0)
    assert first == second


# --- symmetric-sector route of the star ansatz --------------------------------


def _dense_fi(g, r, f, phi, alpha, beta, modality):
    """The star ansatz through the dense moments and the Cholesky FI."""
    setting = HomodyneSetting([alpha] + [beta] * (g.n - 1))
    moments = (phase_measurement_moments if modality == "phase"
               else displacement_measurement_moments)
    return gaussian_fisher_information(moments(g, r, f, phi, setting))


def _uniform_leaf_f(rng, n, modality):
    """Random hub and shared leaf responsivities (per quadrature for displacement)."""
    blocks = 1 if modality == "phase" else 2
    parts = []
    for _ in range(blocks):
        hub, leaf = rng.uniform(-2.0, 2.0, 2)
        parts += [[hub], np.full(n - 1, leaf)]
    return np.concatenate(parts)


@pytest.mark.parametrize("modality", ["phase", "displacement"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_sector_matches_dense_route(n, modality):
    rng = np.random.default_rng(100 + n)
    g = star_graph(n) if n > 1 else empty_graph(1)
    for _ in range(20):
        r = float(rng.uniform(0.0, 3.0))
        phi = float(rng.uniform(0.1, 1.5))
        f = _uniform_leaf_f(rng, n, modality)
        alpha, beta = rng.uniform(0.0, 2 * np.pi, 2)
        sector = fi_star_ansatz(g, r, f, phi, alpha, beta, modality)
        assert sector == pytest.approx(_dense_fi(g, r, f, phi, alpha, beta, modality),
                                       rel=1e-11)


# phase sensing near the optimum at large r with hub and leaf responsivities of
# opposite sign: (n, r, phi, f_hub, f_leaf, alpha, beta)
RIDGE_POINTS = [
    (7, 2.9404, 2.5672, 1.4192, -1.1293, 2.460103, 2.200919),
    (8, 3.9691075979137382, 3.742695996832911, -0.8733664341557863, 0.9383495819350549,
     1.8265544015326582, 2.2819874485592484),
]


@pytest.mark.parametrize("n, r, phi, f_hub, f_leaf, alpha, beta", RIDGE_POINTS,
                         ids=["star7", "star8"])
def test_sector_matches_dense_route_near_optimum(n, r, phi, f_hub, f_leaf, alpha, beta):
    # the sector terms reach e^{4r} here: any products that cancel in
    # Tr[(S2^-1 dS2)^2] lose digits (3e-10 and 3e-8 relative for an adjugate form)
    g = star_graph(n)
    f = np.array([f_hub] + [f_leaf] * (n - 1))
    assert fi_star_ansatz(g, r, f, phi, alpha, beta, "phase") == pytest.approx(
        _dense_fi(g, r, f, phi, alpha, beta, "phase"), rel=1e-12)


@pytest.mark.xfail(strict=True, reason="the Newton ascent stops short on the narrow ridge "
                   "psi_hub = psi_leaf at r = 4 and warns")
def test_optimize_reaches_narrow_ridge_maximum():
    # Nelder-Mead on the sector reaches 231989799.414 at (1.805011, 2.302528),
    # where psi = angle - f phi mod pi is 1.9322 on hub and leaves; the dense
    # route agrees there within 1e-15
    n, r, phi, f_hub, f_leaf, _, _ = RIDGE_POINTS[1]
    f = np.array([f_hub] + [f_leaf] * (n - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, fi = optimize_angles(star_graph(n), r, f, phi)
    assert fi >= 231989799.41 * (1.0 - 1e-9)


def test_nonuniform_leaves_take_grouped_route(monkeypatch):
    # leaves of different responsivities leave the sector for the grouped
    # route, which agrees with the dense moments
    grouped, calls = homodyne._grouped_fi_function, []
    monkeypatch.setattr(homodyne, "_grouped_fi_function",
                        lambda *args: calls.append(args) or grouped(*args))
    g = star_graph(4)
    f_phase = np.array([1.0, 0.5, 0.7, 1.3])
    f_disp = np.array([1.0, 0.5, 0.5, 0.5, 0.2, 0.4, 0.4, 0.9])
    assert homodyne._sector_fi_function(g.n, 1.1, f_phase, 0.4) is None
    for f, modality in ((f_phase, "phase"), (f_disp, "displacement")):
        assert fi_star_ansatz(g, 1.1, f, 0.4, 0.3, 2.0, modality) == pytest.approx(
            _dense_fi(g, 1.1, f, 0.4, 0.3, 2.0, modality), rel=1e-12)
    assert len(calls) == 2


def _pooled_query(rng, g, modality):
    """Responsivities, slots and slot angles drawn from pools of two values, so
    that vertices of one row class form groups of several."""
    f = rng.choice(rng.uniform(-2.0, 2.0, 2), g.n if modality == "phase" else 2 * g.n)
    f[0] = f[0] or 1.0
    return f, rng.integers(0, 2, g.n), rng.uniform(0.0, np.pi, 2)


def _twin_graph(rng):
    """A star, complete multipartite, empty or random graph on at most 9 vertices."""
    kind = rng.integers(4)
    if kind == 0:
        return star_graph(int(rng.integers(2, 10)))
    if kind == 1:
        return multipartite_graph(int(rng.integers(2, 4)), int(rng.integers(1, 4)))
    if kind == 2:
        return empty_graph(int(rng.integers(1, 8)))
    return _random_graph(rng, int(rng.integers(1, 9)))


@pytest.mark.parametrize("modality", ["phase", "displacement"])
def test_grouped_route_matches_dense_moments(modality):
    # the quotient moments plus the complement term against the full n x n
    # moments at the same per-vertex angles; a wrong complement term (say, a
    # dropped factor 2 in da / a) is off by far more than 1e-12
    rng = np.random.default_rng(15 if modality == "phase" else 16)
    cases_with_twins = 0
    for _ in range(300):
        g = _twin_graph(rng)
        f, slots, angles = _pooled_query(rng, g, modality)
        r, phi = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 2.0))
        fi = homodyne._grouped_fi_function(g, r, f, phi, slots, modality)(angles)
        moments = (phase_measurement_moments if modality == "phase"
                   else displacement_measurement_moments)
        dense = gaussian_fisher_information(moments(g, r, f, phi, HomodyneSetting(angles[slots])))
        assert fi == pytest.approx(dense, rel=1e-12, abs=0.0), (g.label, r, phi, f, slots)
        key = np.column_stack([g.classes, slots, f.reshape(-1, g.n).T])
        cases_with_twins += len(np.unique(key, axis=0)) < g.n
    assert cases_with_twins >= 100


def test_grouped_complex_step_matches_central_difference():
    # the complex step the Newton ascent reads (Im sigma_M from the complex
    # factor, the complement term) against a central difference of the real
    # FI; a dropped factor 2 in Im sigma_M is off by O(1)
    rng = np.random.default_rng(18)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        g = star_graph(int(rng.integers(2, 9))) if rng.integers(2) else multipartite_graph(3, m)
        f, slots, angles = _pooled_query(rng, g, "phase")
        r, phi = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 2.0))
        v = rng.normal(size=2)
        fi = homodyne._grouped_fi_function(g, r, f, phi, slots, "phase")
        step = fi(angles + 1j * homodyne.COMPLEX_STEP * v).imag / homodyne.COMPLEX_STEP
        h = 1e-6 * np.exp(-2 * r)
        central = (fi(angles + h * v) - fi(angles - h * v)) / (2 * h)
        assert step == pytest.approx(central, rel=1e-5), (g.label, r, phi, f, slots, angles)


def test_optimize_nonuniform_leaves():
    g = star_graph(3)
    f = np.array([1.0, 0.4, 0.8])
    alpha, beta, fi = optimize_angles(g, 0.5, f, 0.2)
    assert fi == pytest.approx(_dense_fi(g, 0.5, f, 0.2, alpha, beta, "phase"), rel=1e-9)
    assert 0.0 < fi <= qfi(g, 0.5, f, "phase") * (1 + 1e-9)


def test_optimize_nonuniform_leaves_memory():
    # the grouped route evaluates the 32 x 32 grid 64 settings at a time; all
    # 1024 at once would hold 1024 x n x n arrays
    g = star_graph(16)
    f = np.linspace(0.5, 1.5, g.n)
    tracemalloc.start()
    try:
        alpha, beta, fi = optimize_angles(g, 1.0, f, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert fi == pytest.approx(_dense_fi(g, 1.0, f, 0.3, alpha, beta, "phase"), rel=1e-9)


@pytest.mark.parametrize("modality", ["phase", "displacement"])
def test_optimize_large_star_memory(modality):
    # the dense prescreen would hold 4096 x n x n arrays: 2 GB each at n = 256
    g = star_graph(256)
    r, phi = 1.0, 0.3
    f = np.ones(g.n if modality == "phase" else 2 * g.n)
    tracemalloc.start()
    try:
        if modality == "phase":
            alpha, beta, fi = optimize_angles(g, r, f, phi)
        else:
            theta, fi = saturate_displacement(g, r, f)
            alpha, beta = theta[0], theta[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096 * g.n * 8
    assert fi <= qfi(g, r, f, modality) * (1 + 1e-9)
    grid = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    prescreen_best = max(fi_star_ansatz(g, r, f, phi, a, b, modality)
                         for a in grid for b in grid)
    assert fi >= prescreen_best


# optimized FI of the fig3/fig5 rows at n = 2, 7 (phi = 0, f = 1) from the
# dense moments route; the dense values at these optima read high by up to
# 9e-10 relative against a 50-digit evaluation
SATURATION_FI = {
    ("phase", 2, 1.0): 109.21707582569411,
    ("phase", 7, 1.0): 1474.2318226129173,
    ("phase", 2, 3.0): 325509.5828853994,
    ("phase", 7, 3.0): 4394379.369697448,
    ("displacement", 2, 1.0): 118.7662387158408,
    ("displacement", 7, 1.0): 1080.6968844093994,
    ("displacement", 2, 3.0): 6454.870611599575,
    ("displacement", 7, 3.0): 58900.638589338705,
}


@pytest.mark.parametrize("modality,n,r", sorted(SATURATION_FI))
def test_optimize_saturation_values(modality, n, r):
    f = np.ones(n if modality == "phase" else 2 * n)
    if modality == "phase":
        _, _, fi = optimize_angles(star_graph(n), r, f, 0.0)
    else:
        _, fi = saturate_displacement(star_graph(n), r, f)
    assert fi == pytest.approx(SATURATION_FI[modality, n, r], rel=1e-9)


# --- closed-form displacement angles -------------------------------------------


def _random_graph(rng, n):
    a = np.triu((rng.random((n, n)) < rng.random()).astype(int), k=1)
    return Graph(n, a + a.T)


def test_saturate_displacement_certificate():
    # at the rule's angles the dense FI (no star ansatz) equals the QFI
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        g = _random_graph(rng, n)
        r = float(rng.uniform(-3.0, 3.0))
        f = rng.normal(size=2 * n)
        theta, fi = saturate_displacement(g, r, f)
        assert theta.shape == (n,)
        assert np.all((0.0 <= theta) & (theta < np.pi))
        dense = gaussian_fisher_information(
            displacement_measurement_moments(g, r, f, 0.0, HomodyneSetting(theta)))
        q = qfi(g, r, f, "displacement")
        assert dense == pytest.approx(q, rel=1e-9)
        assert fi == pytest.approx(q, rel=1e-9)


@pytest.mark.parametrize("r", [1.0, 3.0, 5.0, 8.0, 10.0])
def test_saturate_displacement_large_r(r):
    # on the grouped route the FI keeps its digits up to the squeezing cap
    # (measured within 1.2e-13 of a 60-digit evaluation at r = 10); the closed
    # form it meets is a sum of two squares
    for g in (star_graph(2), star_graph(8), multipartite_graph(3, 2), empty_graph(3)):
        for f in (np.ones(2 * g.n), np.r_[np.linspace(0.5, 1.5, g.n), np.linspace(-1, 1, g.n)]):
            _, fi = saturate_displacement(g, r, f)
            assert fi == pytest.approx(qfi(g, r, f, "displacement"), rel=1e-12, abs=0.0)


def test_saturate_displacement_zero_signal_mode():
    # f_q = (0, 0, 1), f_p = 0 on star(3): u = (0, 0, 1) and w = A u = (1, 0, 0),
    # so leaf 1 sees no signal (u = w = 0) and gets angle 0
    g = star_graph(3)
    f = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    theta, fi = saturate_displacement(g, 1.0, f)
    np.testing.assert_array_equal(theta, [np.pi / 2, 0.0, 0.0])
    assert fi == pytest.approx(qfi(g, 1.0, f, "displacement"), rel=1e-12)
    # on a graph without edges the grouped route takes the zero mode
    g = empty_graph(3)
    f = np.array([1.0, 0.0, 0.0, 0.5, 0.0, 2.0])
    theta, fi = saturate_displacement(g, 0.4, f)
    assert theta[1] == 0.0
    assert fi == pytest.approx(qfi(g, 0.4, f, "displacement"), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_saturate_displacement_star_shares_leaf_angle(n):
    g = star_graph(n)
    f = np.ones(2 * n)
    theta, fi = saturate_displacement(g, 1.5, f)
    assert np.all(theta[1:] == theta[1])
    assert fi == fi_star_ansatz(g, 1.5, f, 0.0, theta[0], theta[1], "displacement")
    assert fi == pytest.approx(qfi(g, 1.5, f, "displacement"), rel=1e-12)


def test_saturate_displacement_rejects_bad_input():
    g = star_graph(3)
    with pytest.raises(ValueError, match="length 6"):
        saturate_displacement(g, 1.0, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        saturate_displacement(g, 1.0, np.array([1.0, np.nan, 1, 1, 1, 1]))
    with pytest.raises(ValueError, match="squeeze"):
        saturate_displacement(g, 11.0, np.ones(6))


# --- Monte-Carlo cross-check ------------------------------------------------


def test_monte_carlo_location_model():
    m = MeasurementMoments(omega=np.array([0.0]), sigma_m=np.array([[4.0]]),
                           d_omega=np.array([1.0]), d_sigma=np.zeros((1, 1)))
    est, se = fi_monte_carlo(m, 50_000, seed=11)
    assert abs(est - 0.25) <= 3 * se
    assert se < 0.01


def test_monte_carlo_zero_information():
    m = MeasurementMoments(omega=np.zeros(2), sigma_m=np.eye(2),
                           d_omega=np.zeros(2), d_sigma=np.zeros((2, 2)))
    est, se = fi_monte_carlo(m, 10_000, seed=1)
    assert est == 0.0
    assert se == 0.0


def test_monte_carlo_rejects_small_samples():
    m = MeasurementMoments(omega=np.zeros(1), sigma_m=np.eye(1),
                           d_omega=np.ones(1), d_sigma=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        fi_monte_carlo(m, 9_999, seed=0)


def test_monte_carlo_phase_star3():
    g = star_graph(3)
    m = phase_measurement_moments(g, 1.0, np.ones(3), 0.0,
                                  HomodyneSetting([np.pi / 2, 0.3, 0.3]))
    exact = gaussian_fisher_information(m)
    est, se = fi_monte_carlo(m, 100_000, seed=42)
    assert abs(est - exact) <= 3 * se


def test_monte_carlo_reproducible():
    m = MeasurementMoments(omega=np.array([0.0]), sigma_m=np.array([[2.0]]),
                           d_omega=np.array([1.0]), d_sigma=np.zeros((1, 1)))
    a = fi_monte_carlo(m, 20_000, seed=5)
    b = fi_monte_carlo(m, 20_000, seed=5)
    assert a == b


@pytest.mark.parametrize("modality", ["phase", "displacement"])
def test_monte_carlo_matches_cho_solve_reference(modality):
    # the score evaluated with scipy's Cholesky solver, on the same draws
    from scipy.linalg import cho_factor, cho_solve

    g = star_graph(4)
    f = np.ones(4) if modality == "phase" else np.linspace(0.5, 1.2, 8)
    moments = (phase_measurement_moments if modality == "phase"
               else displacement_measurement_moments)
    m = moments(g, 1.0, f, 0.2, HomodyneSetting([1.2, 0.4, 0.4, 0.4]))
    samples = 20_000
    c = cho_factor(m.sigma_m, lower=True)
    xs = np.random.default_rng(7).multivariate_normal(m.omega, m.sigma_m, size=samples,
                                                      method="cholesky")
    z = cho_solve(c, (xs - m.omega).T).T
    scores = (z @ m.d_omega + 0.5 * np.einsum("ni,ij,nj->n", z, m.d_sigma, z)
              - 0.5 * np.trace(cho_solve(c, m.d_sigma)))
    sq = scores**2
    est, se = fi_monte_carlo(m, samples, seed=7)
    assert est == pytest.approx(np.mean(sq), rel=1e-12)
    assert se == pytest.approx(np.std(sq, ddof=1) / np.sqrt(samples), rel=1e-12)


# --- optimizer convergence ----------------------------------------------------


def test_optimize_converged_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimize_angles(star_graph(4), 1.0, np.ones(4), 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_optimize_lone_mode_and_pair_are_certified(n):
    # n = 1 has a flat beta direction (FI = 0 everywhere at r = 0) and n = 2
    # a ridge with a singular Hessian; neither may fail the certificate
    g = empty_graph(1) if n == 1 else star_graph(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.0, 0.5, 1.0, 3.0, 5.0):
            for phi in (0.0, 0.3, 2.0):
                optimize_angles(g, r, np.ones(n), phi)


def test_optimize_warns_once_when_not_certified(monkeypatch):
    # a negative threshold certifies no start: the winner gets one warning
    monkeypatch.setattr(homodyne, "DECREMENT_TOL", -1.0)
    with pytest.warns(RuntimeWarning, match=r"relative Newton decrement .* \(threshold -1\), "
                                            r"concave True, from start \(") as rec:
        _, _, fi = optimize_angles(star_graph(4), 1.0, np.ones(4), 0.0)
    assert len(rec) == 1
    assert fi == pytest.approx(491.4313730005492, rel=1e-12)


def _random_star_query(rng, route):
    """A random phase query on a star: one leaf responsivity (sector route) or
    independent ones on n <= 4 modes (grouped route, one group per mode)."""
    if route == "sector":
        n = int(rng.integers(2, 9))
        f = np.r_[rng.uniform(-2, 2), np.full(n - 1, rng.uniform(-2, 2))]
    else:
        n = int(rng.integers(3, 5))
        f = rng.uniform(-2, 2, n)
    return star_graph(n), float(rng.uniform(0, 3)), f, float(rng.uniform(0, 2 * np.pi))


@pytest.mark.parametrize("route, points", [("sector", 512), ("dense", 128)])
def test_optimize_reaches_fine_grid_maximum(route, points):
    # 20 random stars each: the optimum is at least the maximum of a grid of
    # points x points on [0, pi)^2 (the FI has period pi in each angle), it is
    # reproduced at the returned angles, and its relative Newton decrement is
    # 10x below the certificate threshold
    grid = np.pi / points * np.arange(points)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    rng = np.random.default_rng(12)
    for _ in range(20):
        g, r, f, phi = _random_star_query(rng, route)
        *_, fi = homodyne._ansatz(g, r, f, phi, "phase")
        assert (homodyne._sector_fi_function(g.n, r, f, phi) is None) == (route == "dense")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, beta, value = optimize_angles(g, r, f, phi)
        assert value >= fi(np.stack([aa, bb], -1)).max() * (1 - 1e-12), (g.n, r, f, phi)
        assert fi_star_ansatz(g, r, f, phi, alpha, beta, "phase") == pytest.approx(value, rel=1e-12)
        x = np.array([[alpha, beta]])
        grad, hess = homodyne._newton_terms(fi, x, np.exp(-2 * r))
        _, dec, concave = homodyne._newton_step(fi(x), grad, hess)
        assert concave[0] and dec[0] <= homodyne.DECREMENT_TOL / 10
