"""Independent verification machinery.

Each suite draws randomized cases (plus forced structured graphs) and compares
two routes to the same quantity: closed form vs covariance trace form for the
phase QFI, sum of two squares vs quadratic form for the displacement QFI,
photon-number formula vs covariance trace, and the homodyne kernel's phase
d sigma_M and displacement d omega vs central finite differences (its phase
d omega and displacement d sigma_M are zero by construction). A NaN
comparison fails its suite. Reports are deterministic given (case_count, seed).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qfi
from .gaussian import (graph_state_covariance, mean_photon_number,
                       photon_number_from_covariance)
from .graph import (Graph, empty_graph, multipartite_graph, rectangular_graph,
                    star_graph)
from .homodyne import HomodyneSetting, _moments, _shift

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
        """The fields, with a non-finite maximum as its string ("nan"), so JSON stays valid."""
        d = asdict(self)
        if not math.isfinite(self.max_rel_error):
            d["max_rel_error"] = str(self.max_rel_error)
        return d


def rel_error(a, b) -> float:
    """|a - b| / max(|a|, |b|) with no floor, so that subnormal values compare
    as strictly as any others; |a - b| (0, or NaN) where that maximum is 0."""
    diff, scale = abs(a - b), max(abs(a), abs(b))
    return diff / scale if scale else diff


def _random_graph(rng, n) -> Graph:
    a = (rng.random((n, n)) < 0.5) & (np.arange(n)[:, None] < np.arange(n))  # j < k
    return Graph(n, a | a.T, f"random({n})")


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
    returns (error, detail); detail follows "label r=..." in worst_case. The
    first NaN error is the worst case and fails the suite.
    """
    rng = np.random.default_rng(seed)
    worst_err, worst = 0.0, ""
    for g in _case_graphs(case_count, rng):
        r = rng.uniform(0.0, 2.0)
        err, detail = case(g, r, rng)
        if not (err <= worst_err or math.isnan(worst_err)):
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
    """One draw of run_fi_derivative_check: (worst deviation or NaN, " phi=...").

    Phase: one `_moments` call on phi, phi + h, phi - h; its sigma_M = (B^T)^T B^T at
    phi +/- h checks d sigma_M's upper triangle at phi. Displacement: d omega vs omega =
    sin(theta) mean_q + cos(theta) mean_p of the (q, p) mean phi (f_p, -f_q)."""
    phi = rng.uniform(0.0, 2.0 * np.pi)
    theta = HomodyneSetting(rng.uniform(0.0, 2.0 * np.pi, g.n)).theta
    n, a, phis = g.n, g.adjacency, np.array([phi, phi + FD_STEP, phi - FD_STEP])

    f = rng.uniform(-2.0, 2.0, n)
    root, d_sigma, _ = _moments(a, r, f, theta - _shift(f, phis[:, None], "phase"), "phase")
    sigma = root.swapaxes(1, 2) @ root
    fd = (sigma[1] - sigma[2]) / (2.0 * FD_STEP)
    upper = np.arange(n)[:, None] <= np.arange(n)

    f2 = rng.uniform(-2.0, 2.0, 2 * n)
    _, _, (d_omega,) = _moments(a, r, f2, theta[None], "displacement")
    mean = phis[1:, None] * np.concatenate([f2[n:], -f2[:n]])
    omega = np.sin(theta) * mean[:, :n] + np.cos(theta) * mean[:, n:]
    fd_omega = (omega[0] - omega[1]) / (2.0 * FD_STEP)
    err = np.max(np.abs(np.concatenate([d_sigma[0][upper] - fd[upper], d_omega - fd_omega])))
    return float(err), f" phi={phi:.4f}"


def run_fi_derivative_check(case_count, seed) -> EquivalenceReport:
    """Analytic moment derivatives vs central finite differences: the worst
    ABSOLUTE deviation over the compared entries of both modalities."""
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
