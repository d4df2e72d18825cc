"""Independent verification machinery.

Each suite draws randomized cases (plus forced structured graphs) and compares
two routes to the same quantity: closed form vs covariance trace form for the
phase QFI, sum of two squares vs quadratic form for the displacement QFI,
photon-number formula vs covariance trace, and analytic moment derivatives vs
central finite differences. Reports are deterministic given (case_count, seed).
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import qfi
from .gaussian import (graph_state_covariance, mean_photon_number,
                       photon_number_from_covariance)
from .graph import (Graph, empty_graph, multipartite_graph, rectangular_graph,
                    star_graph)
from .homodyne import (HomodyneSetting, displacement_measurement_moments,
                       phase_measurement_moments)

QFI_TOL = 1e-9  # relative, qfi.cross_check's two routes
PHOTON_TOL = 1e-12
DERIVATIVE_TOL = 1e-6  # absolute, finite differences with step 1e-5
FD_STEP = 1e-5


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one randomized equivalence suite."""

    name: str
    case_count: int
    max_rel_error: float
    worst_case: str
    tolerance: float
    passed: bool

    def to_dict(self):
        return asdict(self)


def rel_error(a, b) -> float:
    """|a - b| / max(|a|, |b|) with no floor, so that subnormal values compare
    as strictly as any others; |a - b| (0, or NaN) where that maximum is 0."""
    diff, scale = abs(a - b), max(abs(a), abs(b))
    return diff / scale if scale else diff


def central_difference(func, x, h) -> float:
    """(f(x+h) - f(x-h)) / (2h)."""
    if h <= 0:
        raise ValueError("step must be positive")
    return (func(x + h) - func(x - h)) / (2.0 * h)


def _random_graph(rng, n) -> Graph:
    a = np.triu((rng.random((n, n)) < 0.5).astype(np.int64), 1)
    return Graph(n, a + a.T, f"random({n})")


def _case_graphs(case_count, rng):
    """Structured families first (star, multipartite, rectangular, empty),
    then random graphs, n uniform in [1, 8] throughout."""
    graphs = []
    if case_count >= 1:
        graphs.append(star_graph(int(rng.integers(2, 9))))
    if case_count >= 2:
        graphs.append(multipartite_graph(int(rng.integers(2, 4)), int(rng.integers(1, 3))))
    if case_count >= 3:
        graphs.append(rectangular_graph(2))
    if case_count >= 4:
        graphs.append(empty_graph(int(rng.integers(1, 9))))
    while len(graphs) < case_count:
        graphs.append(_random_graph(rng, int(rng.integers(1, 9))))
    return graphs


def _compare(name, case_count, seed, tol, case):
    """Worst error of one suite over case_count draws.

    Each draw takes a graph and r, then case(g, r, rng) draws the rest and
    returns (error, detail); detail follows "label r=..." in worst_case.
    """
    rng = np.random.default_rng(seed)
    worst_err, worst = 0.0, ""
    for g in _case_graphs(case_count, rng):
        r = rng.uniform(0.0, 2.0)
        err, detail = case(g, r, rng)
        if err > worst_err:
            worst_err, worst = err, f"{g.label} r={r:.6f}{detail}"
    return EquivalenceReport(name=name, case_count=case_count,
                             max_rel_error=float(worst_err), worst_case=worst,
                             tolerance=tol, passed=bool(worst_err <= tol))


def run_phase_equivalence(case_count, seed) -> EquivalenceReport:
    """Closed-form phase QFI vs the generic covariance trace form."""
    return _compare("phase_equivalence", case_count, seed, QFI_TOL, lambda g, r, rng: (
        rel_error(*qfi.cross_check(g, r, rng.uniform(-2.0, 2.0, g.n), "phase")), ""))


def run_displacement_equivalence(case_count, seed) -> EquivalenceReport:
    """Two-square displacement closed form vs the quadratic form."""
    return _compare("displacement_equivalence", case_count, seed, QFI_TOL, lambda g, r, rng: (
        rel_error(*qfi.cross_check(g, r, rng.uniform(-2.0, 2.0, 2 * g.n), "displacement")), ""))


def run_photon_identity(case_count, seed) -> EquivalenceReport:
    """Photon-number formula vs the covariance-trace evaluation."""
    return _compare("photon_identity", case_count, seed, PHOTON_TOL, lambda g, r, rng: (
        rel_error(mean_photon_number(g, r),
                  photon_number_from_covariance(graph_state_covariance(g, r))), ""))


def _derivative_case(g, r, rng):
    """One draw of run_fi_derivative_check: (worst deviation, " phi=...")."""
    phi = rng.uniform(0.0, 2.0 * np.pi)
    theta = HomodyneSetting(rng.uniform(0.0, 2.0 * np.pi, g.n))

    f = rng.uniform(-2.0, 2.0, g.n)
    m = phase_measurement_moments(g, r, f, phi, theta)
    fd = central_difference(
        lambda p: phase_measurement_moments(g, r, f, p, theta).sigma_m, phi, FD_STEP)
    upper = np.triu_indices(g.n)
    err = float(np.max(np.abs(m.d_sigma[upper] - fd[upper])))
    err = max(err, float(np.max(np.abs(m.d_omega))))  # omega identically 0

    f2 = rng.uniform(-2.0, 2.0, 2 * g.n)
    md = displacement_measurement_moments(g, r, f2, phi, theta)
    up = displacement_measurement_moments(g, r, f2, phi + FD_STEP, theta)
    down = displacement_measurement_moments(g, r, f2, phi - FD_STEP, theta)
    fd_omega = (up.omega - down.omega) / (2.0 * FD_STEP)
    err = max(err, float(np.max(np.abs(md.d_omega - fd_omega))))
    fd_sigma = (up.sigma_m[0, 0] - down.sigma_m[0, 0]) / (2.0 * FD_STEP)
    err = max(err, abs(md.d_sigma[0, 0] - fd_sigma))  # sigma is phi-independent
    return err, f" phi={phi:.4f}"


def run_fi_derivative_check(case_count, seed) -> EquivalenceReport:
    """Analytic moment derivatives vs central finite differences.

    The reported figure is the worst ABSOLUTE deviation across all matrix
    entries, both modalities.
    """
    return _compare("fi_derivative_check", case_count, seed, DERIVATIVE_TOL, _derivative_case)


SUITES = {
    "phase": run_phase_equivalence,
    "displacement": run_displacement_equivalence,
    "photon": run_photon_identity,
    "derivatives": run_fi_derivative_check,
}


def run_all(case_count, seed):
    """All four suites with decorrelated seeds; returns the report list."""
    return [runner(case_count, seed + k) for k, runner in enumerate(SUITES.values())]
