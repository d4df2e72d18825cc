"""Covariance construction, purity, and the photon-budget inversion."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from cvgraphsense.gaussian import (
    R_CAP,
    graph_state_covariance,
    mean_photon_number,
    photon_number_from_covariance,
    squeeze_for_photon_budget,
)
from cvgraphsense.graph import (Graph, empty_graph, multipartite_graph,
                                rectangular_graph, star_graph, trace_power)


def _random_graph(rng, n):
    a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
    return Graph(n, a + a.T)


def test_vacuum_covariance():
    state = graph_state_covariance(empty_graph(3), 0.0)
    np.testing.assert_allclose(state.cov, 0.5 * np.eye(6), atol=1e-15)


def test_single_mode_squeezed():
    r = 1.0
    state = graph_state_covariance(empty_graph(1), r)
    np.testing.assert_allclose(
        state.cov, 0.5 * np.diag([np.exp(2 * r), np.exp(-2 * r)]), rtol=1e-15)


def test_star_blocks_at_r_zero():
    g = star_graph(3)
    a = g.adjacency
    state = graph_state_covariance(g, 0.0)
    np.testing.assert_allclose(state.cov[:3, :3], 0.5 * np.eye(3), atol=1e-15)
    np.testing.assert_allclose(state.cov[:3, 3:], 0.5 * a, atol=1e-15)
    np.testing.assert_allclose(state.cov[3:, 3:], 0.5 * (np.eye(3) + a @ a), atol=1e-15)


def test_covariance_matches_block_reference():
    # the in-place build reproduces the four-block formula bit for bit
    rng = np.random.default_rng(23)
    graphs = [star_graph(6), empty_graph(5), rectangular_graph(3),
              multipartite_graph(3, 4)] + [_random_graph(rng, n) for n in (1, 4, 9, 30)]
    for g in graphs:
        for r in (-1.3, 0.0, 0.4, 2.5):
            n = g.n
            x = np.exp(2.0 * r)
            a = g.adjacency
            reference = np.block([
                [0.5 * x * np.eye(n), 0.5 * x * a],
                [0.5 * x * a, 0.5 * (np.exp(-2.0 * r) * np.eye(n) + x * (a @ a))]])
            cov = graph_state_covariance(g, r).cov
            assert cov.tobytes() == reference.tobytes(), (g.label, r)


def test_excess_diagonal_is_cov_minus_half():
    g = star_graph(5)
    state = graph_state_covariance(g, 0.9)
    np.testing.assert_allclose(state.excess_diag, np.diag(state.cov) - 0.5, rtol=1e-14)


def test_photon_number_tiny_squeezing():
    # Tr(cov)/2 - n/2 loses digits here (3.1e-12 relative); the excess
    # diagonal keeps them
    for g in (empty_graph(1), star_graph(3)):
        for r in (0.002238, 1e-2):
            via_cov = photon_number_from_covariance(graph_state_covariance(g, r))
            assert via_cov == pytest.approx(mean_photon_number(g, r), rel=1e-13, abs=0)


def test_mode_excess_is_the_sum_of_the_q_and_p_excess():
    g = star_graph(5)
    state = graph_state_covariance(g, 0.9)
    np.testing.assert_allclose(state.mode_excess, state.excess_diag[:5] + state.excess_diag[5:],
                               rtol=1e-14)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("r", [1e-5, 1e-7, 1e-9])
def test_photon_route_matches_60_digit_reference(n, r):
    # the q and p halves of cov - I/2 cancel in their sum: summing them lost
    # 5.7e-12, 3.2e-10 and 5.8e-08 relative on empty(1)
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(r).exp()
        exact = n * ((e - 1 / e) / 2) ** 2  # n sinh^2 r
        via_cov = photon_number_from_covariance(graph_state_covariance(empty_graph(n), r))
        assert abs(Decimal(via_cov) - exact) <= Decimal("1e-15") * exact


def test_covariance_symmetric():
    g = star_graph(4)
    state = graph_state_covariance(g, 0.7)
    np.testing.assert_allclose(state.cov, state.cov.T, atol=1e-15)


def test_purity_random_graphs():
    # graph states are pure: det(2 cov) = 1 for any graph and squeezing
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
        g = Graph(n, a + a.T)
        r = float(rng.uniform(-3, 3))
        state = graph_state_covariance(g, r)
        sign, logdet = np.linalg.slogdet(2.0 * state.cov)
        assert sign > 0
        assert logdet == pytest.approx(0.0, abs=1e-9)


def test_r_cap_enforced():
    with pytest.raises(ValueError):
        graph_state_covariance(empty_graph(2), R_CAP + 0.1)
    with pytest.raises(ValueError):
        graph_state_covariance(empty_graph(2), np.inf)


def test_photon_number_star3():
    # 3 sinh^2(1) + e^2 = 11.5323496...
    value = mean_photon_number(star_graph(3), 1.0)
    assert value == pytest.approx(11.532349635556097, rel=1e-14)


def test_photon_number_empty():
    assert mean_photon_number(empty_graph(4), 1.0) == pytest.approx(
        4 * np.sinh(1.0) ** 2, rel=1e-14)
    assert mean_photon_number(empty_graph(1), 2.0) == pytest.approx(
        np.sinh(2.0) ** 2, rel=1e-14)


def test_photon_number_trace_route_agrees():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
        g = Graph(n, a + a.T)
        r = float(rng.uniform(0, 2.5))
        direct = mean_photon_number(g, r)
        via_cov = photon_number_from_covariance(graph_state_covariance(g, r))
        assert via_cov == pytest.approx(direct, rel=1e-12)


def test_budget_inversion_empty_graph_analytic():
    # without edges the budget is n sinh^2 r, invertible by hand
    g = empty_graph(5)
    target = 7.0
    r = squeeze_for_photon_budget(g, target)
    assert r == pytest.approx(np.arcsinh(np.sqrt(target / 5)), rel=1e-10)


def test_budget_inversion_round_trip():
    g = star_graph(3)
    for target in (1.5, 11.532349635556097, 400.0):
        r = squeeze_for_photon_budget(g, target)
        assert mean_photon_number(g, r) == pytest.approx(target, rel=1e-10)


def test_budget_round_trip_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
        g = Graph(n, a + a.T)
        r_true = float(rng.uniform(0.05, 4.0))
        target = mean_photon_number(g, r_true)
        assert squeeze_for_photon_budget(g, target) == pytest.approx(r_true, abs=1e-9)


def test_budget_unreachable_above():
    with pytest.raises(ValueError, match="maximum reachable"):
        squeeze_for_photon_budget(star_graph(3), 1e12)


def test_budget_below_minimum():
    # star(3) at r=0 already holds Tr(A^2)/4 = 1 photon
    g = star_graph(3)
    with pytest.raises(ValueError, match="reachable range"):
        squeeze_for_photon_budget(g, 0.1)
    with pytest.raises(ValueError):
        squeeze_for_photon_budget(g, -2.0)


def test_budget_endpoints_exact():
    g = star_graph(3)
    lo = mean_photon_number(g, 0.0)
    assert squeeze_for_photon_budget(g, lo) == 0.0


def test_budget_monotone():
    g = star_graph(4)
    rs = [squeeze_for_photon_budget(g, t) for t in (2.0, 5.0, 20.0, 100.0)]
    assert all(r1 < r2 for r1, r2 in zip(rs, rs[1:]))


def _decimal_budget_root(n, t2, target, r0):
    """50-digit root of n sinh^2 r + e^{2r} t2/4 = target by Newton from r0."""
    with localcontext() as ctx:
        ctx.prec = 50
        n, t2, target = Decimal(n), Decimal(t2), Decimal(target)
        r = Decimal(r0)
        for _ in range(100):
            e = r.exp()
            sinh, cosh = (e - 1 / e) / 2, (e + 1 / e) / 2
            value = n * sinh * sinh + e * e * t2 / 4 - target
            step = value / (2 * n * sinh * cosh + e * e * t2 / 2)
            r -= step
            if abs(step) <= Decimal("1e-45") * r:
                break
        e = r.exp()
        residual = n * ((e - 1 / e) / 2) ** 2 + e * e * t2 / 4 - target
        assert abs(residual) <= Decimal("1e-40") * target
        return r


@pytest.mark.parametrize("g", [star_graph(2), star_graph(5), star_graph(64),
                               star_graph(2048), empty_graph(1), empty_graph(3),
                               empty_graph(100), multipartite_graph(3, 5),
                               multipartite_graph(4, 512), rectangular_graph(10),
                               rectangular_graph(32)], ids=lambda g: g.label)
def test_budget_root_matches_50_digit_root(g):
    lo = mean_photon_number(g, 0.0)
    hi = mean_photon_number(g, R_CAP)
    if lo > 0:
        near = [lo * (1.0 + k) for k in (2e-10, 1e-9, 1e-7, 1e-4, 1e-2)]
    else:
        near = [1e-14, 1e-10, 1e-6, 1e-3]
    targets = near + list(np.geomspace(near[-1], min(1e14, 0.999 * hi), 12)[1:])
    worst = 0.0
    for target in targets:
        r = squeeze_for_photon_budget(g, target)
        ref = _decimal_budget_root(g.n, trace_power(g, 2), target, r)
        worst = max(worst, float(abs(Decimal(r) - ref) / ref))
    assert worst <= 1e-15
