"""Independent verification machinery.

Each suite draws randomized cases (plus forced structured graphs) and compares
two routes to the same quantity: closed form vs covariance trace form for the
phase QFI, sum of two squares vs quadratic form for the displacement QFI,
photon-number formula vs covariance trace, and analytic moment derivatives vs
central finite differences. Reports are deterministic given (case_count, seed).
"""

from dataclasses import asdict, dataclass

import numpy as np

from .gaussian import (graph_state_covariance, mean_photon_number,
                       photon_number_from_covariance)
from .graph import (Graph, empty_graph, multipartite_graph, rectangular_graph,
                    star_graph)
from .homodyne import (HomodyneSetting, displacement_measurement_moments,
                       phase_measurement_moments)
from .qfi import (qfi_displacement, qfi_displacement_closed_form,
                  qfi_phase_closed_form, qfi_phase_generic)

PHASE_TOL = 1e-9
DISPLACEMENT_TOL = 1e-9
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


def _report(name, case_count, max_err, worst, tol):
    return EquivalenceReport(name=name, case_count=case_count,
                             max_rel_error=float(max_err), worst_case=worst,
                             tolerance=tol, passed=bool(max_err <= tol))


def rel_error(a, b) -> float:
    """|a - b| over max(|a|, |b|, 1e-30); survives exact zeros."""
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


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


def _describe(g, r, extra=""):
    return f"{g.label} r={r:.6f}{extra}"


def _compare(name, case_count, seed, tol, f_modes, routes):
    """Worst relative error between two routes to one quantity.

    Each case draws r, then (f_modes > 0) f with f_modes * n entries, and
    evaluates routes(g, r, f), which returns the two values to compare.
    """
    rng = np.random.default_rng(seed)
    worst_err, worst = 0.0, ""
    for g in _case_graphs(case_count, rng):
        r = rng.uniform(0.0, 2.0)
        f = rng.uniform(-2.0, 2.0, f_modes * g.n) if f_modes else None
        err = rel_error(*routes(g, r, f))
        if err > worst_err:
            worst_err, worst = err, _describe(g, r)
    return _report(name, case_count, worst_err, worst, tol)


def run_phase_equivalence(case_count, seed) -> EquivalenceReport:
    """Closed-form phase QFI vs the generic covariance trace form."""
    return _compare("phase_equivalence", case_count, seed, PHASE_TOL, 1,
                    lambda g, r, f: (qfi_phase_closed_form(g, r, f),
                                     qfi_phase_generic(graph_state_covariance(g, r), f)))


def run_displacement_equivalence(case_count, seed) -> EquivalenceReport:
    """Two-square displacement closed form vs the quadratic form."""
    return _compare("displacement_equivalence", case_count, seed, DISPLACEMENT_TOL, 2,
                    lambda g, r, f: (qfi_displacement_closed_form(g, r, f),
                                     qfi_displacement(graph_state_covariance(g, r), f)))


def run_photon_identity(case_count, seed) -> EquivalenceReport:
    """Photon-number formula vs the covariance-trace evaluation."""
    return _compare("photon_identity", case_count, seed, PHOTON_TOL, 0,
                    lambda g, r, f: (mean_photon_number(g, r),
                                     photon_number_from_covariance(graph_state_covariance(g, r))))


def run_fi_derivative_check(case_count, seed) -> EquivalenceReport:
    """Analytic moment derivatives vs central finite differences.

    The reported figure is the worst ABSOLUTE deviation across all matrix
    entries, both modalities.
    """
    rng = np.random.default_rng(seed)
    worst_err, worst = 0.0, ""
    for g in _case_graphs(case_count, rng):
        r = rng.uniform(0.0, 2.0)
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

        if err > worst_err:
            worst_err, worst = err, _describe(g, r, f" phi={phi:.4f}")
    return _report("fi_derivative_check", case_count, worst_err, worst,
                   DERIVATIVE_TOL)


SUITES = {
    "phase": run_phase_equivalence,
    "displacement": run_displacement_equivalence,
    "photon": run_photon_identity,
    "derivatives": run_fi_derivative_check,
}


def run_all(case_count, seed):
    """All four suites with decorrelated seeds; returns the report list."""
    return [runner(case_count, seed + k) for k, runner in enumerate(SUITES.values())]
