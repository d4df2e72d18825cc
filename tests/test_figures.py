"""Sweep-table layout, slope fitting, unreachable-budget handling."""

import numpy as np
import pytest

from cvgraphsense.gaussian import squeeze_for_photon_budget
from cvgraphsense.graph import empty_graph, star_graph
from cvgraphsense.qfi import qfi
from cvgraphsense.figures import (
    FIG3_COLUMNS,
    figure_table,
    fit_loglog_slope,
    n_grid,
    saturation_rows,
    scaling_rows,
)


def test_n_grid_shape():
    grid = n_grid(512)
    assert grid[0] == 2 and grid[-1] == 512
    assert np.all(np.diff(grid) > 0)
    assert grid.dtype.kind == "i"


def test_n_grid_small_range_collapses_duplicates():
    grid = n_grid(4)
    assert set(grid) == {2, 3, 4}


def test_n_grid_rejects_tiny():
    with pytest.raises(ValueError):
        n_grid(1)


def test_fit_loglog_slope_exact_power():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    assert fit_loglog_slope(xs, 3.0 * xs**2) == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_slope(xs, 5.0 / xs) == pytest.approx(-1.0, abs=1e-12)


def test_fit_loglog_slope_window():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    ys = np.array([10.0, 1.0, 16.0, 64.0, 256.0])  # clean x^2 only for x >= 4
    assert fit_loglog_slope(xs, ys, x_min=4.0) == pytest.approx(2.0, abs=1e-12)


def test_fit_loglog_slope_needs_two_points():
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0], x_min=10.0)


def test_scaling_rows_skips_unreachable_budget():
    # a 10-mode star holds 4.5 photons with no squeezing, so N_bar = 1 is
    # unreachable and must turn into a warning, not an abort
    rows, warnings = scaling_rows("phase", nbar_grid=(1.0, 50.0),
                                  ntilde_values=(), n_max=4)
    assert len(rows) == 1
    assert len(warnings) == 1
    assert "omitted" in warnings[0] and "N_bar=1" in warnings[0]


def test_scaling_rows_ratio_column():
    rows, _ = scaling_rows("displacement", nbar_grid=(30.0,),
                           ntilde_values=(), n_max=4)
    row = rows[0]
    assert row["ratio"] == pytest.approx(row["qfi_star"] / row["qfi_separable"])


def _scaling_rows_point_by_point(modality, n_fixed, nbar_grid, ntilde_values, n_max):
    """Reference table: fresh graphs at every grid point, sweeps in table order."""
    points = [(n_fixed, float(nbar)) for nbar in nbar_grid]
    points += [(int(n), float(t) * int(n)) for t in ntilde_values for n in n_grid(n_max)]
    rows, warnings = [], []
    for n, target in points:
        f = np.ones(n if modality == "phase" else 2 * n)
        try:
            qs, qe = (qfi(g, squeeze_for_photon_budget(g, target), f, modality)
                      for g in (star_graph(n), empty_graph(n)))
        except ValueError as exc:
            warnings.append(f"omitted N_bar={target:g} at n={n}: {exc}")
            continue
        rows.append({"n": n, "N_bar": target, "qfi_star": qs,
                     "qfi_separable": qe, "ratio": qs / qe})
    return rows, warnings


@pytest.mark.parametrize("modality", ["phase", "displacement"])
def test_scaling_rows_order_with_repeated_ntilde(modality):
    # ntilde = 0.2 is unreachable at small n, and it appears twice: each
    # occurrence is a sweep of its own, rows and warnings alike
    grid = dict(n_fixed=6, nbar_grid=(1.0, 40.0), ntilde_values=(0.2, 1.0, 0.2), n_max=16)
    rows, warnings = scaling_rows(modality, **grid)
    assert (rows, warnings) == _scaling_rows_point_by_point(modality, **grid)
    assert sum(w.startswith("omitted N_bar=0.4 at n=2:") for w in warnings) == 2


def test_figure_ntilde_max_one_repeats_the_sweep():
    # --ntilde-max 1 gives ntilde = (1.0, 1.0): two identical mode-count sweeps
    _, rows, _ = figure_table("fig2", n_max=32, ntilde_max=1.0)
    grid = len(n_grid(32))
    first, second = rows[-2 * grid:-grid], rows[-grid:]
    assert first == second
    assert [row["n"] for row in first] == list(n_grid(32))


def test_saturation_rows_layout():
    rows = saturation_rows("displacement", r_values=(1.0,), n_values=(2, 3))
    assert len(rows) == 2
    assert set(rows[0]) == set(FIG3_COLUMNS)
    for row in rows:
        assert 0.0 < row["ratio"] <= 1.0 + 1e-9


def test_figure_table_rejects_unknown_name():
    with pytest.raises(ValueError):
        figure_table("fig9")
