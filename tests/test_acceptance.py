"""Acceptance gate: nine numbered criteria, one summary line each.

Every test prints (and registers) a single CRITERION line with the measured
values, then asserts the stated requirement verbatim. Four clauses are known
not to hold for this construction and fail with their true values on record
rather than being loosened:

  * criterion 2: the multipartite phase ratio is ((l-1)^3 + 1)/(l^2 (l-1)),
    which matches the stated (l-1)/l only at l = 2;
  * criterion 3: the clipped-band graph satisfies Tr A^4 = 36n - 162, a
    constant 78 below the stated 36n - 84 (boundary convention);
  * criterion 5: at n = 10 the exact-to-asymptote ratios settle at 936/784
    (phase) and 408/280 (displacement), both above the 1.15 ceiling;
  * criterion 7: the optimized phase ratio varies by just over 5% across
    n in [2, 6], driven by the degenerate two-mode star.
"""

import json

import numpy as np

from cvgraphsense import oracle
from cvgraphsense.cli import main as cli_main
from cvgraphsense.figures import NBAR_GRID, fit_loglog_slope, saturation_rows, scaling_rows
from cvgraphsense.gaussian import graph_state_covariance, mean_photon_number
from cvgraphsense.graph import (
    Graph,
    chi_disp,
    chi_phase,
    multipartite_graph,
    rectangular_graph,
    star_graph,
    trace_power,
)
from cvgraphsense.homodyne import (
    HomodyneSetting,
    displacement_measurement_moments,
    fi_monte_carlo,
    gaussian_fisher_information,
    phase_measurement_moments,
)
from cvgraphsense.qfi import (
    qfi_displacement_closed_form,
    qfi_displacement_star_asymptote,
    qfi_phase_closed_form,
    qfi_phase_star_asymptote,
)

# slope fits use the asymptotic tail of each sweep: the top decade of the
# photon grid [10, 1e3] and the top octaves (n >= 64) of the mode grid
# [2, 512]; the full-range fit is printed alongside for reference
NBAR_FIT_MIN = 100.0
N_FIT_MIN = 64


def _split_sweeps(rows, n_fixed=10, ntilde=10.0):
    nbar_rows = [r for r in rows
                 if r["n"] == n_fixed
                 and any(abs(r["N_bar"] - g) < 1e-9 for g in NBAR_GRID)]
    n_rows = [r for r in rows if abs(r["N_bar"] - ntilde * r["n"]) < 1e-9]
    return nbar_rows, n_rows


def test_criterion_1_oracle_equivalence(criterion, capsys):
    code = cli_main(["verify", "all", "--cases", "200", "--seed", "42"])
    reports = json.loads(capsys.readouterr().out)
    detail = "verify all --cases 200 --seed 42: " + "; ".join(
        f"{rep['name']} max err {float(rep['max_rel_error']):.2e} (tol {rep['tolerance']:g})"
        for rep in reports)
    line = criterion(1, code == 0, detail)
    assert code == 0, line


def test_criterion_2_characteristic_figures(criterion):
    star_ok = all(chi_phase(star_graph(n)) == 0.5
                  and chi_disp(star_graph(n)) == n / 2
                  for n in range(2, 51))

    mp_disp_ok = True
    mp_phase_claim_ok = True
    actual_by_l = {}
    for l in range(2, 6):
        for m in range(1, 5):
            g = multipartite_graph(l, m)
            if chi_disp(g) != m * (l - 1):
                mp_disp_ok = False
            actual_by_l[l] = chi_phase(g)
            if abs(chi_phase(g) - (l - 1) / l) > 1e-12:
                mp_phase_claim_ok = False

    rng = np.random.default_rng(2024)
    bounds_ok = True
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 13))
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), k=1)
        a = a + a.T
        if not a.any():
            continue
        g = Graph(n, a)
        checked += 1
        if not (chi_phase(g) <= 1.0 + 1e-12 and chi_disp(g) <= n + 1e-12):
            bounds_ok = False

    ok = star_ok and mp_disp_ok and mp_phase_claim_ok and bounds_ok
    actual = ", ".join(f"l={l}: {v:.4f}" for l, v in sorted(actual_by_l.items()))
    detail = (f"star chi_p=1/2 and chi_d=n/2 exact for n in [2,50]: {star_ok}; "
              f"multipartite chi_d=m(l-1) exact: {mp_disp_ok}; "
              f"multipartite chi_p=(l-1)/l: {mp_phase_claim_ok} "
              f"(measured ((l-1)^3+1)/(l^2(l-1)) -> {actual}); "
              f"bounds chi_p<=1, chi_d<=n on 500 random graphs: {bounds_ok}")
    line = criterion(2, ok, detail)
    assert ok, line


def test_criterion_3_band_graph_traces(criterion):
    t2_ok = True
    t4_claim_ok = True
    t4_offsets = set()
    for m in range(10, 51, 5):
        g = rectangular_graph(m)
        n = g.n
        if trace_power(g, 2) != 4 * n - 10:
            t2_ok = False
        t4 = trace_power(g, 4)
        t4_offsets.add(t4 - 36 * n)
        if t4 != 36 * n - 84:
            t4_claim_ok = False
    ok = t2_ok and t4_claim_ok
    detail = (f"Tr A^2 = 4n-10 exact for m in [10,50]: {t2_ok}; "
              f"Tr A^4 = 36n-84: {t4_claim_ok} "
              f"(measured Tr A^4 - 36n = {sorted(t4_offsets)} on every m, i.e. "
              f"36n-162 for this clipped-band boundary; convention escalated)")
    line = criterion(3, ok, detail)
    assert ok, line


def test_criterion_4_phase_scaling(criterion):
    rows, warnings = scaling_rows("phase", ntilde_values=(10.0,), n_max=512)
    assert not warnings
    nbar_rows, n_rows = _split_sweeps(rows)

    nbars = [r["N_bar"] for r in nbar_rows]
    stars = [r["qfi_star"] for r in nbar_rows]
    s_nbar = fit_loglog_slope(nbars, stars, x_min=NBAR_FIT_MIN)
    s_nbar_full = fit_loglog_slope(nbars, stars)

    ns = [r["n"] for r in n_rows]
    s_n = fit_loglog_slope(ns, [r["qfi_star"] for r in n_rows], x_min=N_FIT_MIN)
    s_n_full = fit_loglog_slope(ns, [r["qfi_star"] for r in n_rows])
    s_sep = fit_loglog_slope(ns, [r["qfi_separable"] for r in n_rows])

    dominated = all(r["qfi_star"] >= r["qfi_separable"] * (1 - 1e-9) for r in rows)
    ok = (1.9 <= s_nbar <= 2.1 and 1.9 <= s_n <= 2.1
          and 0.9 <= s_sep <= 1.1 and dominated)
    detail = (f"star slope vs N_bar {s_nbar:.4f} on N_bar>={NBAR_FIT_MIN:g} "
              f"(full range {s_nbar_full:.4f}); star slope vs n {s_n:.4f} on "
              f"n>={N_FIT_MIN} (full range {s_n_full:.4f}); separable slope vs n "
              f"{s_sep:.4f}; star >= separable on all {len(rows)} points: {dominated}")
    line = criterion(4, ok, detail)
    assert ok, line


def test_criterion_5_asymptote_constants(criterion):
    n, r = 10, 3.0
    g = star_graph(n)
    nbar = mean_photon_number(g, r)
    phase_ratio = (qfi_phase_closed_form(g, r, np.ones(n))
                   / qfi_phase_star_asymptote(n, nbar, 1.0))
    disp_ratio = (qfi_displacement_closed_form(g, r, np.ones(2 * n))
                  / qfi_displacement_star_asymptote(n, nbar, 1.0))
    ok = 0.85 <= phase_ratio <= 1.15 and 0.85 <= disp_ratio <= 1.15
    detail = (f"n=10, r=3 (N_bar={nbar:.1f}): phase exact/asymptote = "
              f"{phase_ratio:.6f}, displacement = {disp_ratio:.6f}; the large-r "
              f"limits at n=10 are 936/784 = {936/784:.4f} and 408/280 = "
              f"{408/280:.4f}, so [0.85, 1.15] is unattainable at this size "
              f"(first reached at n>=13 and n>=31)")
    line = criterion(5, ok, detail)
    assert ok, line


def test_criterion_6_displacement_scaling(criterion):
    rows, warnings = scaling_rows("displacement", ntilde_values=(10.0,), n_max=512)
    assert not warnings
    nbar_rows, n_rows = _split_sweeps(rows)

    ns = [r["n"] for r in n_rows]
    s_n = fit_loglog_slope(ns, [r["qfi_star"] for r in n_rows], x_min=N_FIT_MIN)
    s_n_full = fit_loglog_slope(ns, [r["qfi_star"] for r in n_rows])

    nbars = [r["N_bar"] for r in nbar_rows]
    stars = [r["qfi_star"] for r in nbar_rows]
    s_nbar = fit_loglog_slope(nbars, stars, x_min=NBAR_FIT_MIN)
    s_nbar_full = fit_loglog_slope(nbars, stars)

    ok = 1.9 <= s_n <= 2.1 and 0.9 <= s_nbar <= 1.1
    detail = (f"star slope vs n {s_n:.4f} on n>={N_FIT_MIN} (full range "
              f"{s_n_full:.4f}); slope vs N_bar {s_nbar:.4f} on "
              f"N_bar>={NBAR_FIT_MIN:g} (full range {s_nbar_full:.4f})")
    line = criterion(6, ok, detail)
    assert ok, line


def test_criterion_7_homodyne_saturation(criterion):
    n_values = range(2, 7)
    disp_rows = saturation_rows("displacement", n_values=n_values)
    disp_ok = all(row["ratio"] >= 0.99 for row in disp_rows)
    disp_min = min(row["ratio"] for row in disp_rows)

    phase_rows = saturation_rows("phase", n_values=n_values)
    window_ok = all(0.45 <= row["ratio"] <= 0.55 for row in phase_rows)
    variations = {}
    alt = {}
    for r in (1.0, 3.0):
        ratios = np.array([row["ratio"] for row in phase_rows if row["r"] == r])
        mean = float(np.mean(ratios))
        variations[r] = float(np.ptp(ratios)) / mean
        alt[r] = (float(np.max(np.abs(ratios - mean))) / mean,
                  float(np.std(ratios)) / mean)
    variation_ok = all(v < 0.05 for v in variations.values())

    ok = disp_ok and window_ok and variation_ok
    detail = (f"displacement FI/QFI >= 0.99 for n in [2,6], r in {{1,3}}: {disp_ok} "
              f"(min {disp_min:.6f}); phase FI/QFI in [0.45,0.55]: {window_ok}; "
              f"phase peak-to-peak variation across n "
              + ", ".join(f"{100 * v:.2f}% at r={r:g}" for r, v in sorted(variations.items()))
              + " (< 5% required; driven by the degenerate n=2 star at 0.500, "
              + "n in [3,6] vary by < 1%; max-deviation-from-mean and std/mean: "
              + ", ".join(f"{100 * a:.2f}%/{100 * s:.2f}% at r={r:g}"
                          for r, (a, s) in sorted(alt.items())) + ")")
    line = criterion(7, ok, detail)
    assert ok, line


def test_criterion_8_monte_carlo(criterion):
    devs = []
    worst = 0.0
    for n, r, alpha, beta, seed in [(3, 1.0, np.pi / 2, 0.3, 101),
                                    (4, 0.8, 1.2, 2.1, 102),
                                    (2, 1.5, 2.0, 0.5, 103)]:
        g = star_graph(n)
        m = phase_measurement_moments(g, r, np.ones(n), 0.0,
                                      HomodyneSetting([alpha] + [beta] * (n - 1)))
        exact = gaussian_fisher_information(m)
        est, se = fi_monte_carlo(m, 100_000, seed=seed)
        devs.append(abs(est - exact) / se)
    for n, r, theta, seed in [(3, 1.0, [0.4, 1.1, 1.1], 104),
                              (4, 0.6, [1.0, 2.2, 2.2, 2.2], 105),
                              (2, 1.2, [0.7, 1.9], 106)]:
        g = star_graph(n)
        m = displacement_measurement_moments(g, r, np.ones(2 * n), 0.3,
                                             HomodyneSetting(theta))
        exact = gaussian_fisher_information(m)
        est, se = fi_monte_carlo(m, 100_000, seed=seed)
        devs.append(abs(est - exact) / se)
    worst = max(devs)
    ok = worst <= 3.0
    detail = (f"6 fixed star configurations, 1e5 samples each: worst deviation "
              f"{worst:.2f} standard errors (all must be <= 3)")
    line = criterion(8, ok, detail)
    assert ok, line


def test_criterion_9_manifest_determinism(criterion, tmp_path, capsys):
    identical = []
    for name in ("fig2", "fig4"):
        out = tmp_path / f"{name}.csv"
        manifest = tmp_path / f"{name}.manifest.json"
        assert cli_main(["figure", name, "--n-max", "64", "--output", str(out),
                         "--save-manifest", str(manifest)]) == 0
        first = out.read_bytes()
        out.unlink()
        assert cli_main(["--manifest", str(manifest)]) == 0
        identical.append(out.read_bytes() == first)

    manifest = tmp_path / "qfi.manifest.json"
    assert cli_main(["qfi", "phase", "--star", "4", "--r", "1.3", "--csv",
                     "--save-manifest", str(manifest)]) == 0
    direct = capsys.readouterr().out
    assert cli_main(["--manifest", str(manifest)]) == 0
    identical.append(capsys.readouterr().out == direct)

    ok = all(identical)
    detail = (f"fig2/fig4 CSV replay byte-identical: {identical[0]}/{identical[1]}; "
              f"qfi CSV replay identical: {identical[2]}")
    line = criterion(9, ok, detail)
    assert ok, line
