"""Sweep tables for the scaling and saturation figures.

All tables are plain lists of dicts in a fixed column order, suitable for CSV
or JSON serialization. Scaling sweeps compare the star probe against the
separable (edgeless) probe at equal total photon number, solving the squeeze
parameter separately for each graph at every grid point.
"""

import functools

import numpy as np

from .gaussian import squeeze_for_photon_budget
from .graph import empty_graph, star_graph
from .homodyne import optimize_angles, saturate_displacement
from .qfi import qfi

FIG2_COLUMNS = ("n", "N_bar", "qfi_star", "qfi_separable", "ratio")
FIG3_COLUMNS = ("n", "r", "qfi", "fi_opt", "alpha", "beta", "ratio")

NBAR_GRID = tuple(np.geomspace(10.0, 1000.0, 16))
DEFAULT_N_MAX = 512
DEFAULT_NTILDE = (1.0, 10.0)


def n_grid(n_max=DEFAULT_N_MAX):
    """Integer log grid 2..n_max used for the mode-count sweeps."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return np.unique(np.geomspace(2, n_max, 17).round().astype(int))


def scaling_rows(modality, n_fixed=10, nbar_grid=NBAR_GRID,
                 ntilde_values=DEFAULT_NTILDE, n_max=DEFAULT_N_MAX):
    """Rows of the star-vs-separable scaling table (fig2/fig4 layout).

    First a photon-number sweep at fixed n, then mode-count sweeps at fixed
    photons per mode. Returns (rows, warnings); grid points whose photon
    budget is unreachable are omitted with a warning rather than aborting.
    The graphs of each mode count are built once and serve every sweep.
    """
    points = [(n_fixed, float(nbar)) for nbar in nbar_grid]
    points += [(int(n), float(t) * int(n)) for t in ntilde_values for n in n_grid(n_max)]
    graphs = functools.cache(lambda n: (star_graph(n), empty_graph(n)))
    rows, warnings = [], []
    for n, target in points:
        try:
            pair = graphs(n)
            f = np.ones(n if modality == "phase" else 2 * n)
            qs, qe = (qfi(g, squeeze_for_photon_budget(g, target), f, modality) for g in pair)
        except ValueError as exc:
            warnings.append(f"omitted N_bar={target:g} at n={n}: {exc}")
            continue
        rows.append({"n": n, "N_bar": target, "qfi_star": qs,
                     "qfi_separable": qe, "ratio": qs / qe})
    return rows, warnings


def saturation_rows(modality, r_values=(1.0, 3.0), n_values=range(2, 9), phi=0.0):
    """Rows of the homodyne-saturation table (fig3/fig5 layout).

    Phase angles come from the two-angle optimizer; displacement angles from
    the closed-form rule, which puts one angle on all leaves of a star.
    """
    rows = []
    for r in r_values:
        for n in n_values:
            g = star_graph(int(n))
            f = np.ones(g.n if modality == "phase" else 2 * g.n)
            q = qfi(g, r, f, modality)
            if modality == "phase":
                alpha, beta, fi = optimize_angles(g, r, f, phi)
            else:
                theta, fi = saturate_displacement(g, r, f)
                alpha, beta = float(theta[0]), float(theta[1])
            rows.append({"n": int(n), "r": float(r), "qfi": q, "fi_opt": fi,
                         "alpha": alpha, "beta": beta, "ratio": fi / q})
    return rows


def figure_table(name, n_max=DEFAULT_N_MAX, ntilde_max=10.0, phi=0.0):
    """Dispatch a figure name to (columns, rows, warnings)."""
    if name in ("fig2", "fig4"):
        if not 0.0 < ntilde_max < np.inf:  # also rejects NaN
            raise ValueError(f"ntilde_max must be finite and positive, got {ntilde_max:g}")
        rows, warn = scaling_rows("phase" if name == "fig2" else "displacement",
                                  ntilde_values=(1.0, float(ntilde_max)), n_max=n_max)
        return FIG2_COLUMNS, rows, warn
    if name in ("fig3", "fig5"):
        modality = "phase" if name == "fig3" else "displacement"
        return FIG3_COLUMNS, saturation_rows(modality, phi=phi), []
    raise ValueError(f"unknown figure {name!r}")


def fit_loglog_slope(xs, ys, x_min=None):
    """Least-squares slope of log(y) against log(x), optionally on x >= x_min."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if x_min is not None:
        keep = xs >= x_min
        xs, ys = xs[keep], ys[keep]
    if xs.size < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
