"""Output checks made apart from the program under test.

Every reference value here comes from scalar formulas or from matrices built
in this file with numpy; nothing is copied from a stored run of the program.
A checker returns a list of problems; an empty list means the output passed.

Conventions match the program: quadratures in block order (q..., p...),
vacuum covariance I/2, uniform responsivity f = 1, and x = e^{2r}.
"""

import csv
import io
import json
import math

import numpy as np

# agreement the project requires of any change to FI/QFI values
REL_TOL = 1e-9
# the CLI's `--csv` style tables print 12 significant digits
CSV_TOL = 1e-11
CROSS_CHECK_TOL = 1e-9
# suite -> tolerance stated in the README of the program
VERIFY_SUITES = {"phase_equivalence": 1e-9, "displacement_equivalence": 1e-9,
                 "photon_identity": 1e-12, "fi_derivative_check": 1e-6}
FIG_COLUMNS = ["n", "N_bar", "qfi_star", "qfi_separable", "ratio"]


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- graphs

def star_adjacency(n):
    a = np.zeros((n, n))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    return a


def multipartite_adjacency(l, m):
    part = np.arange(l * m) // m
    return (part[:, None] != part[None, :]).astype(float)


def rectangular_adjacency(m):
    """Offsets +-1 and +-4 on n = 4m vertices, clipped at the ends."""
    n = 4 * m
    a = np.zeros((n, n))
    for off in (1, 4):
        i = np.arange(n - off)
        a[i, i + off] = 1.0
        a[i + off, i] = 1.0
    return a


def edges_adjacency(n, edges):
    a = np.zeros((n, n))
    i, j = np.asarray(edges).T - 1
    a[i, j] = 1.0
    a[j, i] = 1.0
    return a


def star_invariants(n):
    """(Tr A^2, Tr A^4, sum of squared degrees) of the star on n vertices."""
    return 2.0 * (n - 1), 2.0 * (n - 1) ** 2, float(n * (n - 1))


def invariants(a, a2):
    deg = a.sum(axis=1)
    return float(a.sum()), float(np.sum(a2 * a2)), float(deg @ deg)


# ---------------------------------------------------------------- formulas

def budget_x(n, t2, n_bar):
    """x = e^{2r} at photon number n_bar.

    N = n sinh^2 r + x Tr(A^2)/4 is the quadratic
    (n + T2) x^2 - (2n + 4N) x + n = 0; the larger root is r >= 0, and with
    b > 0 the '+' branch has no cancellation.
    """
    a = n + t2
    b = 2.0 * n + 4.0 * n_bar
    return (b + math.sqrt(b * b - 4.0 * a * n)) / (2.0 * a)


def photon_number(n, t2, x):
    return 0.25 * n * (x + 1.0 / x - 2.0) + 0.25 * x * t2


def phase_qfi(n, t2, t4, x):
    """2n sinh^2(2r) + (1 + e^{4r}) Tr A^2 + e^{4r} Tr A^4 / 2, f = 1."""
    return 0.5 * n * (x - 1.0 / x) ** 2 + (1.0 + x * x) * t2 + 0.5 * x * x * t4


def displacement_qfi(n, t2, sdeg2, x):
    """4 f^T S f with f = 1: 2n(x + 1/x) + 4x Tr A^2 + 2x sum_ij (A^2)_ij."""
    return 2.0 * n * (x + 1.0 / x) + 4.0 * x * t2 + 2.0 * x * sdeg2


def covariance(a, a2, x):
    n = a.shape[0]
    eye = np.eye(n)
    return 0.5 * np.block([[x * eye, x * a], [x * a, eye / x + x * a2]])


def phase_qfi_pure(a, a2, x):
    """Pure-state route: with f = 1 the generator is Omega and
    S^-1 = 4 Omega S Omega^T, so Tr(G^2 - G S^-1 G S)/2 = 2 Tr S^2 - n."""
    s = covariance(a, a2, x)
    return 2.0 * float(np.sum(s * s)) - a.shape[0]


def displacement_qfi_pure(a, a2, x):
    return 4.0 * float(covariance(a, a2, x).sum())


def qfi_formula(modality, n, t2, t4, sdeg2, x):
    if modality == "phase":
        return phase_qfi(n, t2, t4, x)
    return displacement_qfi(n, t2, sdeg2, x)


def coarse_angle_grid(points=12):
    """Half-step offset grid over [0, 2pi)^2, disjoint from the optimizer's
    own 64 x 64 grid."""
    ticks = (np.arange(points) + 0.5) * (2.0 * np.pi / points)
    return [(float(a), float(b)) for a in ticks for b in ticks]


# ---------------------------------------------------------------- parsing

def _json_head(out):
    """The JSON document at the start of a command's stdout."""
    return json.JSONDecoder().raw_decode(out)[0]


def _close(problems, label, got, want, tol=REL_TOL):
    if not rel_diff(float(got), want) <= tol:
        problems.append(f"{label}: got {float(got)!r}, expected {want!r} "
                        f"(rel diff {rel_diff(float(got), want):.2e} > {tol:g})")


# ---------------------------------------------------------------- checkers

def scaling_grid(n_max, ntilde=(1.0, 10.0), n_fixed=10):
    """(n, N_bar) of every fig2/fig4 row: 16 budgets from 10 to 1000 at
    n = 10, then N_bar = ntilde * n on 17 log-spaced mode counts."""
    rows = [(n_fixed, 10.0 * 100.0 ** (k / 15.0)) for k in range(16)]
    ns = sorted({round(2.0 * (n_max / 2.0) ** (k / 16.0)) for k in range(17)})
    rows += [(n, t * n) for t in ntilde for n in ns]
    return rows


def check_scaling(modality, n_max, rc, out):
    if rc != 0:
        return [f"exit code {rc}"]
    lines = out.splitlines()
    if not lines or lines[0].split(",") != FIG_COLUMNS:
        return [f"unexpected header {lines[:1]!r}"]
    rows = list(csv.DictReader(io.StringIO(out)))
    grid = scaling_grid(n_max)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    problems = []
    for k, (row, (n, n_bar)) in enumerate(zip(rows, grid)):
        if int(row["n"]) != n:
            problems.append(f"row {k}: n = {row['n']}, expected {n}")
            continue
        _close(problems, f"row {k} N_bar", row["N_bar"], n_bar, CSV_TOL)
        t2, t4, sdeg2 = star_invariants(n)
        star = qfi_formula(modality, n, t2, t4, sdeg2, budget_x(n, t2, n_bar))
        sep = qfi_formula(modality, n, 0.0, 0.0, 0.0, budget_x(n, 0.0, n_bar))
        _close(problems, f"row {k} qfi_star", row["qfi_star"], star)
        _close(problems, f"row {k} qfi_separable", row["qfi_separable"], sep)
        _close(problems, f"row {k} ratio", row["ratio"], star / sep)
    return problems


def check_saturation(modality, n, r, ansatz_fi, rc, out):
    """Optimized FI of the star ansatz: 0 < FI <= QFI, FI at least the best
    point of a coarse grid, and FI reproduced at the reported angles.

    ansatz_fi(alpha, beta) evaluates the program's two-angle FI.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    d = _json_head(out)
    x = math.exp(2.0 * r)
    t2, t4, sdeg2 = star_invariants(n)
    qfi = qfi_formula(modality, n, t2, t4, sdeg2, x)
    problems = []
    _close(problems, "qfi", d["qfi"], qfi)
    fi = float(d["value"])
    if not 0.0 < fi <= qfi * (1.0 + REL_TOL):
        problems.append(f"FI {fi!r} outside (0, QFI = {qfi!r}]")
    grid_best = max(ansatz_fi(a, b) for a, b in coarse_angle_grid())
    if fi < grid_best * (1.0 - 1e-12):
        problems.append(f"FI {fi!r} below the coarse-grid maximum {grid_best!r}")
    _close(problems, "FI at reported angles", ansatz_fi(d["alpha"], d["beta"]), fi)
    return problems


def check_fixed_fi(modality, n, r, alpha, beta, rc, out):
    if rc != 0:
        return [f"exit code {rc}"]
    d = _json_head(out)
    t2, t4, sdeg2 = star_invariants(n)
    qfi = qfi_formula(modality, n, t2, t4, sdeg2, math.exp(2.0 * r))
    problems = []
    _close(problems, "qfi", d["qfi"], qfi)
    if (d["alpha"], d["beta"]) != (alpha, beta):
        problems.append(f"angles {(d['alpha'], d['beta'])} != {(alpha, beta)}")
    fi = float(d["value"])
    if not 0.0 < fi <= qfi * (1.0 + REL_TOL):
        problems.append(f"FI {fi!r} outside (0, QFI = {qfi!r}]")
    return problems


def check_qfi(modality, make_adjacency, r, rc, out):
    """`qfi` output against the trace formula and the pure-state route.

    make_adjacency() builds the graph's adjacency matrix. Exit 1 is accepted
    only as a reported cross-check failure; the closed form must still be
    right.
    """
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    d = _json_head(out)
    a = make_adjacency()
    a2 = a @ a
    n = a.shape[0]
    x = math.exp(2.0 * r)
    t2, t4, sdeg2 = invariants(a, a2)
    want = qfi_formula(modality, n, t2, t4, sdeg2, x)
    pure = (phase_qfi_pure if modality == "phase" else displacement_qfi_pure)(a, a2, x)
    problems = []
    if d["n"] != n:
        problems.append(f"n = {d['n']}, expected {n}")
    _close(problems, "value vs trace formula", d["value"], want)
    _close(problems, "value vs pure-state route", d["value"], pure)
    _close(problems, "N_bar", d["N_bar"], photon_number(n, t2, x))
    failed = "cross-check failed" in out
    if rc == 0:
        _close(problems, "cross_check", d["cross_check"], want)
        if failed or not d["rel_difference"] <= CROSS_CHECK_TOL:
            problems.append("exit 0 with a failed cross-check")
    elif not (failed and d["rel_difference"] > CROSS_CHECK_TOL):
        problems.append("exit 1 without a reported cross-check failure")
    return problems


def check_verify(cases, rc, out):
    if rc != 0:
        return [f"exit code {rc}"]
    reports = json.loads(out)
    problems = []
    if [rep["name"] for rep in reports] != list(VERIFY_SUITES):
        problems.append(f"suites {[rep['name'] for rep in reports]}")
    for rep in reports:
        if rep["case_count"] != cases:
            problems.append(f"{rep['name']}: {rep['case_count']} cases, expected {cases}")
        tol = VERIFY_SUITES.get(rep["name"], 0.0)
        if not (rep["passed"] and rep["tolerance"] == tol
                and rep["max_rel_error"] <= tol):
            problems.append(f"{rep['name']}: error {rep['max_rel_error']:.3e}, "
                            f"tolerance {rep['tolerance']:g}, stated {tol:g}")
    return problems
