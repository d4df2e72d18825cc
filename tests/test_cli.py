"""Command-line interface: parsing, payloads, exit codes, manifests."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvgraphsense import cli, figures, oracle
from cvgraphsense import qfi as qfi_module
from cvgraphsense.cli import main, parse_f
from cvgraphsense.gaussian import squeeze_for_photon_budget
from cvgraphsense.graph import (MAX_VERTICES, adjacency_square_sum, empty_graph, star_graph,
                                trace_power)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_f_scalar_broadcast():
    np.testing.assert_array_equal(parse_f("2.5", 3), [2.5, 2.5, 2.5])


def test_parse_f_list():
    np.testing.assert_array_equal(parse_f("1,0,-1", 3), [1.0, 0.0, -1.0])


def test_parse_f_length_mismatch():
    with pytest.raises(ValueError):
        parse_f("1,2", 3)


def test_graph_info_star(capsys):
    code, out, _ = run_cli(capsys, "graph-info", "--star", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"] == "star(5)"
    assert payload["n"] == 5
    assert payload["edge_count"] == 4
    assert payload["trace_A2"] == 8
    assert payload["trace_A4"] == 32
    assert payload["sum_A2"] == 20
    assert payload["chi_phase"] == pytest.approx(0.5)
    assert payload["chi_disp"] == pytest.approx(2.5)


def test_graph_info_multipartite(capsys):
    code, out, _ = run_cli(capsys, "graph-info", "--multipartite", "3", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6
    assert payload["chi_phase"] == pytest.approx(9.0 / 18.0)
    assert payload["chi_disp"] == pytest.approx(4.0)


def test_graph_info_edgeless(capsys):
    code, out, _ = run_cli(capsys, "graph-info", "--empty", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_phase"] == "undefined"
    assert payload["chi_disp"] == "undefined"


def test_graph_info_from_edge_file(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("3\n1 2\n1 3\n")
    code, out, _ = run_cli(capsys, "graph-info", "--edges", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["edge_count"] == 2


@pytest.mark.parametrize("text,message", [
    ("2\n1 2.5\n", "line 2: expected integer vertex indices 'i j', got '1 2.5'"),
    ("2.5\n1 2\n", "line 1: expected an integer vertex count, got '2.5'"),
    # above MAX_VERTICES: refused before anything of size n is formed
    ("10000000000\n1 2\n", "vertex count 10000000000 is too large"),
])
def test_graph_info_malformed_edge_file(tmp_path, capsys, text, message):
    path = tmp_path / "g.edges"
    path.write_text(text)
    code, out, err = run_cli(capsys, "graph-info", "--edges", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _run_under_address_cap(tmp_path, *argv):
    """The CLI in a subprocess whose address space is capped at 4 GiB, run in tmp_path."""
    import resource

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, hard))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "cvgraphsense.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60, preexec_fn=cap, cwd=tmp_path)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps the address space")
def test_graph_info_unallocatable_vertex_count(tmp_path):
    # a count above MAX_VERTICES is refused before any array of size n is formed: under
    # the 4 GiB address-space cap 3e9 int64 degrees could not be allocated on any
    # machine, and the timeout would catch a loop over 3e9 vertices
    (tmp_path / "g.edges").write_text("3000000000\n1 2\n")
    proc = _run_under_address_cap(tmp_path, "graph-info", "--edges", "g.edges")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: vertex count 3000000000 is too large\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps the address space")
@pytest.mark.parametrize("argv, message", [
    (["graph-info", "--star", str(MAX_VERTICES + 1)], f"vertex count {MAX_VERTICES + 1}"),
    (["graph-info", "--empty", str(MAX_VERTICES + 1)], f"vertex count {MAX_VERTICES + 1}"),
    (["graph-info", "--rectangular", str(MAX_VERTICES // 4 + 1)],
     f"vertex count {MAX_VERTICES + 4}"),
    # checked before its 4m-vertex range, which the address-space cap would refuse
    (["graph-info", "--rectangular", str(2**40)], f"vertex count {2**42}"),
    (["graph-info", "--multipartite", "2", str(MAX_VERTICES // 2 + 1)],
     f"vertex count {MAX_VERTICES + 2}"),
    # n = 8193 is far below the cap, but its 8193 x n class rows pass 256 MAX_VERTICES
    (["qfi", "phase", "--multipartite", "8193", "1", "--r", "1"], "vertex count 8193"),
    (["graph-info", "--edges", "g.edges"], f"vertex count {MAX_VERTICES + 1}"),
    (["figure", "fig2", "--n-max", str(MAX_VERTICES + 1)], "n_max must be between 2"),
], ids=["star", "empty", "rectangular", "rectangular-huge", "multipartite", "multipartite-parts",
        "edges", "n-max"])
def test_vertex_count_above_the_cap_exits_2(tmp_path, argv, message):
    # each is refused before an array of size n forms; without the cap a build (or a
    # figure point) of this size would run, and only memory would stop a larger one
    (tmp_path / "g.edges").write_text(f"{MAX_VERTICES + 1}\n1 2\n")
    proc = _run_under_address_cap(tmp_path, *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1, proc.stderr


def test_vertex_count_at_the_cap_is_built(tmp_path, capsys):
    (tmp_path / "g.edges").write_text(f"{MAX_VERTICES}\n1 2\n")
    for flag, value in (("--star", MAX_VERTICES), ("--edges", tmp_path / "g.edges")):
        code, out, _ = run_cli(capsys, "graph-info", flag, str(value))
        assert code == 0 and json.loads(out)["n"] == MAX_VERTICES


def test_qfi_phase_star3(capsys):
    code, out, _ = run_cli(capsys, "qfi", "phase", "--star", "3", "--r", "0", "--f", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(12.0)
    assert payload["rel_difference"] < 1e-9
    assert payload["N_bar"] == pytest.approx(1.0)


@pytest.mark.parametrize("m, r", [(64, "1"), (256, "1"), (64, "3")])
def test_qfi_phase_dense_graph_cross_check(capsys, m, r):
    # dense multipartite graphs once failed the covariance cross-check
    code, out, _ = run_cli(capsys, "qfi", "phase", "--multipartite", "4", str(m), "--r", r)
    assert code == 0
    assert json.loads(out)["rel_difference"] <= 1e-12


def test_qfi_phase_small_r_cross_check(capsys):
    # the covariance route once cancelled as r -> 0 on graphs with few edges
    code, out, _ = run_cli(capsys, "qfi", "phase", "--empty", "3", "--r", "1e-5")
    assert code == 0
    assert json.loads(out)["rel_difference"] <= 1e-9


@pytest.mark.parametrize("graph, r", [("3", "1e-9"), ("1", "1e-12")])
def test_qfi_phase_tiny_r_cross_check(capsys, graph, r):
    # the covariance route summed the q and p halves of cov - I/2, which
    # cancel: relative differences 2.9e-08 and 2.4e-05 failed the check
    code, out, _ = run_cli(capsys, "qfi", "phase", "--empty", graph, "--r", r)
    assert code == 0
    assert json.loads(out)["rel_difference"] <= 1e-15


def test_qfi_displacement_empty(capsys):
    code, out, _ = run_cli(capsys, "qfi", "displacement", "--empty", "4", "--r", "0")
    assert code == 0
    payload = json.loads(out)
    # vacuum: 4 f^T f with f = 1 on all 8 quadratures
    assert payload["value"] == pytest.approx(16.0)


def test_qfi_displacement_nullifier_cross_check_fails(capsys):
    # the closed form is exact along f_q = -A f_p, while 4 f^T S f loses about
    # e^{4r} eps there: the value prints and the failed check exits 1
    code, out, err = run_cli(capsys, "qfi", "displacement", "--star", "3", "--r", "5",
                             "--f=0,-1,-1,1,0,0")
    payload, message = out.rsplit("}\n", 1)
    assert code == 1
    value = json.loads(payload + "}")["value"]
    assert value == pytest.approx(2.0 * np.exp(-10.0), rel=1e-12, abs=0.0)
    assert message == "cross-check failed: relative difference 2.656e-08\n"
    assert err == ""


@pytest.mark.parametrize("argv", [("displacement", "--star", "2048"),
                                  ("phase", "--star", "1024")], ids=["displacement", "phase"])
def test_qfi_cross_check_forms_no_dense_covariance(capsys, argv):
    # the 2n x 2n covariance alone takes 134 MB and 34 MB here; the block
    # routes keep every array at 256 x n or smaller
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "qfi", *argv, "--r", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16e6


def test_qfi_and_verify_share_one_cross_check(monkeypatch, capsys):
    # a stub for the one closed-form/covariance pair fails both commands
    monkeypatch.setattr(qfi_module, "cross_check", lambda g, r, f, modality: (1.0, 1.1))
    code, out, _ = run_cli(capsys, "qfi", "phase", "--star", "3", "--r", "1")
    assert code == 1
    assert out.endswith("cross-check failed: relative difference 9.091e-02\n")
    code, out, _ = run_cli(capsys, "verify", "phase", "--cases", "3")
    assert code == 1
    assert json.loads(out)[0]["passed"] is False


@pytest.mark.parametrize("argv, code, message", [
    # a subnormal QFI of tiny f keeps its digits on both routes; one of tiny r
    # is 1e-323 against 0
    (("--star", "3", "--r", "1", "--f", "1e-161"), 0, ""),
    (("--empty", "1", "--r", "1e-162"), 1,
     "cross-check failed: relative difference 1.000e+00\n"),
    (("--star", "3", "--r", "1", "--f", "1e-20"), 0, ""),
])
def test_qfi_cross_check_has_no_absolute_floor(capsys, argv, code, message):
    got, out, err = run_cli(capsys, "qfi", "phase", *argv)
    payload, tail = out.rsplit("}\n", 1)
    assert (got, tail, err) == (code, message, "")
    if code == 0:
        diff = json.loads(payload + "}")["rel_difference"]
        expected = {"1e-161": 0.0, "1e-20": 2.0e-16}[argv[-1]]
        assert diff == pytest.approx(expected, rel=0.01, abs=0.0)


def test_qfi_target_photon_budget(capsys):
    code, out, _ = run_cli(capsys, "qfi", "phase", "--star", "3",
                           "--target-N", "11.532349635556097")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == pytest.approx(1.0, abs=1e-9)
    assert payload["N_bar"] == pytest.approx(11.532349635556097, rel=1e-10)


def test_qfi_csv_output(capsys):
    code, out, _ = run_cli(capsys, "qfi", "phase", "--star", "3", "--r", "0", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "value"
    assert float(lines[1].split(",")[0]) == pytest.approx(12.0)


def test_qfi_unreachable_budget_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "qfi", "phase", "--star", "3", "--target-N", "1e300")
    assert code == 2
    assert "unreachable" in err


@pytest.mark.parametrize("argv", [
    ("fi", "phase", "--star", "3", "--target-N", "inf", "--optimize"),
    ("qfi", "phase", "--star", "3", "--target-N", "nan"),
])
def test_non_finite_budget_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: target photon number must be finite")
    assert err.count("\n") == 1


def test_fi_optimized_displacement(capsys):
    code, out, _ = run_cli(capsys, "fi", "displacement", "--star", "4",
                           "--r", "1", "--optimize")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] >= 0.99
    assert payload["value"] == pytest.approx(payload["qfi"] * payload["ratio"])


def test_fi_optimized_displacement_any_graph(capsys):
    code, out, _ = run_cli(capsys, "fi", "displacement", "--multipartite", "3", "2",
                           "--r", "1", "--optimize")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] >= 1 - 1e-9
    assert len(payload["theta"]) == 6
    assert (payload["alpha"], payload["beta"]) == tuple(payload["theta"][:2])


def test_fi_optimized_displacement_csv_theta(capsys):
    code, out, _ = run_cli(capsys, "fi", "displacement", "--star", "3", "--r", "1",
                           "--optimize", "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    theta = dict(zip(header.split(","), row.split(",")))["theta"].split(";")
    assert len(theta) == 3 and theta[1] == theta[2]


@pytest.mark.parametrize("modality, angles", [
    ("phase", ("--optimize",)),
    ("displacement", ("--alpha", "0.3", "--beta", "1")),
])
def test_fi_star_ansatz_still_requires_star(capsys, modality, angles):
    code, out, err = run_cli(capsys, "fi", modality, "--multipartite", "3", "2",
                             "--r", "1", *angles)
    assert code == 2
    assert out == ""
    assert err == "error: angle ansatz requires a star graph with hub at vertex 1\n"


def _is_pinned_phase_optimum(payload):
    assert payload["value"] == pytest.approx(491.4313730005492, rel=1e-12)
    # twin optima (pi/2 +- d, +-beta) tie in FI; the tie-break returns the
    # one with the smaller beta mod pi, and the angles of an optimum are
    # resolved to about 1e-8
    assert payload["alpha"] == pytest.approx(1.5710873, abs=1e-6)
    assert payload["beta"] == pytest.approx(0.1345638, abs=1e-6)
    return True


# each command runs in a fresh interpreter, which must not load scipy
NO_SCIPY_COMMANDS = {
    "graph-info": (["graph-info", "--star", "5"], 0,
                   lambda out: json.loads(out)["n"] == 5),
    "qfi": (["qfi", "phase", "--star", "3", "--r", "1"], 0,
            lambda out: json.loads(out)["value"] > 0),
    "fi-phase-optimize": (["fi", "phase", "--star", "4", "--r", "1", "--optimize"], 0,
                          lambda out: _is_pinned_phase_optimum(json.loads(out))),
    "fi-displacement-optimize": (["fi", "displacement", "--star", "4", "--r", "1", "--optimize"],
                                 0, lambda out: json.loads(out)["ratio"] >= 1 - 1e-9),
    "fi-zero-f": (["fi", "phase", "--star", "3", "--r", "1", "--f", "0", "--optimize"], 2,
                  lambda out: out == ""),
    **{fig: (["figure", fig, "--n-max", "8", "--json"], 0, lambda out: len(json.loads(out)) > 0)
       for fig in ("fig2", "fig3", "fig4", "fig5")},
    "verify": (["verify", "all", "--cases", "5"], 0,
               lambda out: all(rep["passed"] for rep in json.loads(out))),
}


@pytest.mark.parametrize("name", sorted(NO_SCIPY_COMMANDS))
def test_cli_loads_no_scipy(name):
    argv, code, check = NO_SCIPY_COMMANDS[name]
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "import cvgraphsense, cvgraphsense.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        f"code = cvgraphsense.cli.main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"assert code == {code} and not loaded, (code, loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert check(proc.stdout)
    if code == 2:
        assert proc.stderr == "error: f must have at least one nonzero entry\n"
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize("argv, angles, reachable", [
    (("--star", "7", "--r", "2.2413", "--phi", "5.0081",
      "--f=-1.9789,1.2849,1.2849,1.2849,1.2849,1.2849,1.2849"), ("1.472637", "2.110114"),
     521061.44075),
    (("--star", "8", "--r", "1.9889", "--phi", "5.9237",
      "--f=-1.3733,1.2514,-0.3556,1.1332,1.5671,1.968,-0.9358,-0.1882"), ("2.791937", "1.245682"),
     61632.48952),
])
def test_fi_optimize_reaches_the_better_basin(capsys, argv, angles, reachable):
    # the FI at these fixed angles bounds the optimum from below, on a star
    # with leaves of one responsivity and on one with leaves of several
    code, out, _ = run_cli(capsys, "fi", "phase", *argv, "--alpha", angles[0], "--beta", angles[1])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(reachable, rel=1e-9)
    code, out, err = run_cli(capsys, "fi", "phase", *argv, "--optimize")
    assert code == 0 and err == ""
    assert json.loads(out)["value"] >= reachable * (1 - 1e-9)


def test_fi_fixed_angles_bounded_by_qfi(capsys):
    code, out, _ = run_cli(capsys, "fi", "phase", "--star", "3", "--r", "1",
                           "--alpha", "1.2", "--beta", "0.4")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] <= payload["qfi"] * (1 + 1e-9)
    assert payload["alpha"] == pytest.approx(1.2)


@pytest.mark.parametrize("angles", [
    ("--alpha", "nan", "--beta", "0"),
    ("--alpha", "0.3", "--beta", "inf"),
    ("--alpha", "0.3", "--beta", "0", "--phi", "nan"),
    ("--optimize", "--phi=-inf"),
])
def test_fi_rejects_non_finite_angles(capsys, angles):
    code, out, err = run_cli(capsys, "fi", "phase", "--star", "3", "--r", "1", *angles)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --") and "must be finite" in err
    assert err.count("\n") == 1


def test_fi_optimize_at_huge_phi(capsys):
    code, out, err = run_cli(capsys, "fi", "phase", "--star", "4", "--r", "5",
                             "--phi", "1e16", "--optimize")
    assert code == 0
    assert err == ""
    assert json.loads(out)["ratio"] >= 0.52941176


@pytest.mark.parametrize("args", [("--r", "0", "--optimize"),
                                  ("--r", "0", "--alpha", "0", "--beta", "0"),
                                  ("--r", "1e-300", "--optimize")])
def test_fi_zero_qfi_ratio_is_undefined(capsys, args):
    # an unsqueezed lone mode carries no phase information: FI = QFI = 0
    code, out, err = run_cli(capsys, "fi", "phase", "--empty", "1", *args)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["value"], payload["qfi"], payload["ratio"]) == (0.0, 0.0, "undefined")
    code, out, err = run_cli(capsys, "fi", "phase", "--empty", "1", *args, "--csv")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["ratio"] == "undefined"


@pytest.mark.parametrize("fmt", [(), ("--csv",)])
def test_overflowing_result_is_usage_error(capsys, fmt):
    # f_j^2 overflows: the QFI is inf, which neither format may print; sinh^2(2r) is 0
    # at r = 0 and underflows to 0 at r = 1e-200, where its term 0 * inf would read nan
    for r in ("0", "1e-200"):
        code, out, err = run_cli(capsys, "qfi", "phase", "--star", "2", "--r", r,
                                 "--f", "1e308", *fmt)
        assert code == 2
        assert out == ""
        assert err == "error: value is not finite (inf); the inputs overflow double precision\n"


def test_overflow_in_optimizer_is_usage_error(capsys):
    # the float sector FI overflows inside the optimizer, before any output
    code, out, err = run_cli(capsys, "fi", "phase", "--star", "8", "--r", "1",
                             "--f", "1e308", "--optimize")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the inputs overflow double precision")
    assert err.count("\n") == 1
    assert "Numerical result out of range" not in err and "(34" not in err


def test_fi_angle_flags_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fi", "phase", "--star", "3", "--r", "1",
              "--optimize", "--alpha", "0.3"])
    assert exc.value.code == 2


def test_fi_angle_flags_missing(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fi", "phase", "--star", "3", "--r", "1"])
    assert exc.value.code == 2


def test_figure_fig2_contract(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run_cli(capsys, "figure", "fig2", "--n-max", "16",
                         "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,N_bar,qfi_star,qfi_separable,ratio"
    assert len(lines) > 10
    for line in lines[1:]:
        n, nbar, star, sep, ratio = line.split(",")
        assert float(star) >= float(sep) * (1 - 1e-9)
        assert float(ratio) == pytest.approx(float(star) / float(sep), rel=1e-9)


@pytest.mark.parametrize("name", ["fig2", "fig4"])
def test_figure_reaches_large_n(capsys, name):
    # star and empty graphs are built in O(n), so n = 100000 needs no n x n array
    code, out, _ = run_cli(capsys, "figure", name, "--n-max", "100000", "--json")
    assert code == 0
    last = json.loads(out)[-1]
    n, n_bar = last["n"], last["N_bar"]
    assert (n, n_bar) == (100000, 1e6)
    for g, column in ((star_graph(n), "qfi_star"), (empty_graph(n), "qfi_separable")):
        r = squeeze_for_photon_budget(g, n_bar)
        t2 = trace_power(g, 2)
        if name == "fig2":
            expected = (2.0 * n * np.sinh(2.0 * r) ** 2 + (1.0 + np.exp(4.0 * r)) * t2
                        + 0.5 * np.exp(4.0 * r) * trace_power(g, 4))
        else:  # |1 + A 1|^2 = n + 2 Tr(A^2) + sum_jk (A^2)_jk
            expected = (2.0 * np.exp(2.0 * r) * (n + 2 * t2 + adjacency_square_sum(g))
                        + 2.0 * np.exp(-2.0 * r) * n)
        assert last[column] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", ["fig2", "fig4"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("output", [False, True])
def test_figure_rejects_bad_ntilde_max(tmp_path, capsys, name, value, output):
    out_path = tmp_path / "t.csv"
    output_args = ("--output", str(out_path)) if output else ()
    code, out, err = run_cli(capsys, "figure", name, "--ntilde-max", value, *output_args)
    assert (code, out) == (2, "")
    assert err.startswith("error: ntilde_max must be finite and positive") and err.count("\n") == 1
    assert not out_path.exists()


def test_figure_json_mode(capsys):
    code, out, _ = run_cli(capsys, "figure", "fig4", "--n-max", "8", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows and set(rows[0]) == {"n", "N_bar", "qfi_star", "qfi_separable", "ratio"}


def test_verify_photon_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "photon", "--cases", "25", "--seed", "1")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["name"] == "photon_identity"
    assert reports[0]["passed"] is True


def test_verify_all_seed_242(capsys):
    # this seed draws r = 0.002238 on one mode, where Tr(cov)/2 - n/2 cancels
    code, out, _ = run_cli(capsys, "verify", "all", "--cases", "200", "--seed", "242")
    assert code == 0
    assert all(rep["passed"] for rep in json.loads(out))


@pytest.mark.parametrize("flag, value, message", [
    ("--cases", "0", "error: --cases must be at least 1\n"),
    ("--seed", "-1", "error: --seed must be non-negative\n")], ids=["cases", "seed"])
def test_verify_rejects_zero_cases(capsys, flag, value, message):
    assert run_cli(capsys, "verify", "photon", flag, value) == (2, "", message)


def test_manifest_round_trip(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    code, first, _ = run_cli(capsys, "qfi", "phase", "--star", "3", "--r", "0.5",
                             "--save-manifest", str(manifest))
    assert code == 0
    saved = json.loads(manifest.read_text())
    assert saved["command"] == "qfi"
    assert saved["parameters"]["star"] == 3
    code, replay, _ = run_cli(capsys, "--manifest", str(manifest))
    assert code == 0
    assert replay == first


def test_manifest_figure_replay_identical(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    manifest = tmp_path / "t.json"
    code, _, _ = run_cli(capsys, "figure", "fig2", "--n-max", "8",
                         "--output", str(out_path), "--save-manifest", str(manifest))
    assert code == 0
    first = out_path.read_bytes()
    out_path.unlink()
    code, _, _ = run_cli(capsys, "--manifest", str(manifest))
    assert code == 0
    assert out_path.read_bytes() == first


def test_manifest_edges_replay_from_other_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "g.edges").write_text("3\n1 2\n1 3\n")
    monkeypatch.chdir(tmp_path)
    code, first, _ = run_cli(capsys, "qfi", "displacement", "--edges", "g.edges",
                             "--r", "1", "--save-manifest", "run.json")
    assert code == 0
    saved = json.loads((tmp_path / "run.json").read_text())
    assert saved["parameters"]["edges"] == str(tmp_path / "g.edges")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, replay, _ = run_cli(capsys, "--manifest", str(tmp_path / "run.json"))
    assert code == 0
    assert replay == first


GRAPH_KEYS = ["star", "multipartite", "rectangular", "empty", "edges"]
# each command's manifest parameters, in the order its parser defines them
MANIFEST_RUNS = [
    (("graph-info", "--star", "3"), GRAPH_KEYS + ["csv"]),
    (("qfi", "phase", "--star", "3", "--r", "1"),
     ["modality"] + GRAPH_KEYS + ["r", "target_n", "f", "csv"]),
    (("fi", "displacement", "--star", "3", "--r", "1", "--optimize"),
     ["modality"] + GRAPH_KEYS + ["r", "target_n", "f", "phi", "alpha", "beta",
                                  "optimize", "csv"]),
    (("figure", "fig2", "--n-max", "4", "--output", "t.csv"),
     ["name", "output", "n_max", "ntilde_max", "phi", "json"]),
    (("verify", "photon", "--cases", "3", "--seed", "7"), ["suite", "cases", "seed"]),
]


def test_manifest_holds_command_and_parameters_only(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, keys in MANIFEST_RUNS:
        code, _, _ = run_cli(capsys, *argv, "--save-manifest", "run.json")
        assert code == 0, argv
        saved = json.loads((tmp_path / "run.json").read_text())
        assert list(saved) == ["command", "parameters"]
        assert saved["command"] == argv[0]
        assert list(saved["parameters"]) == keys, argv
    assert saved["parameters"]["seed"] == 7


QUERY_USAGE = ("(--star N | --multipartite L M | --rectangular M | --empty N | --edges PATH) "
               "(--r R | --target-N TARGET_N) [--f F]")


@pytest.mark.parametrize("command,options", [
    ("qfi", "[--csv]"),
    ("fi", "[--phi PHI] [--alpha ALPHA] [--beta BETA] [--optimize] [--csv]"),
])
def test_query_usage_keeps_parser_order(monkeypatch, capsys, command, options):
    # qfi and fi share one argument block; its order is the order of --help
    # (and of saved manifests, pinned above)
    monkeypatch.setenv("COLUMNS", "400")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == (f"usage: cvgraphsense {command} [-h] {QUERY_USAGE} {options} "
                     "[--save-manifest PATH] {phase,displacement}")


@pytest.mark.parametrize("target", [".", "missing/run.json"])
def test_unwritable_manifest_path_is_usage_error(tmp_path, monkeypatch, capsys, target):
    # a directory, or a file in a directory that does not exist
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "qfi", "phase", "--star", "3", "--r", "1",
                             "--save-manifest", target)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_figure_refuses_non_finite_value_and_writes_no_file(tmp_path, monkeypatch, capsys,
                                                            fmt):
    def overflowing(name, **kwargs):
        return ("n", "ratio"), [{"n": 2, "ratio": 1.5}, {"n": 3, "ratio": float("inf")}], []

    monkeypatch.setattr(figures, "figure_table", overflowing)
    out_path = tmp_path / "t.csv"
    code, out, err = run_cli(capsys, "figure", "fig2", "--output", str(out_path), *fmt)
    assert (code, out) == (2, "")
    assert err == "error: ratio is not finite (inf); the inputs overflow double precision\n"
    assert not out_path.exists()


def test_verify_refuses_non_finite_error(monkeypatch, capsys):
    def diverged(cases, seed):
        return oracle.EquivalenceReport("photon_identity", cases, float("nan"), "", 1e-12, False)

    # a NaN comparison is a failed check (exit 1, valid JSON), not an overflow (exit 2)
    monkeypatch.setitem(oracle.SUITES, "photon", diverged)
    code, out, err = run_cli(capsys, "verify", "photon", "--cases", "3")
    assert (code, err) == (1, "")
    assert json.loads(out)[0]["max_rel_error"] == "nan"


def test_manifest_with_old_top_level_keys_replays(tmp_path, capsys):
    # manifests once repeated the output path and seed beside the parameters
    out_path = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "figure", "fig2", "--n-max", "8", "--output", str(out_path))
    assert code == 0
    first = out_path.read_bytes()
    out_path.unlink()
    old = {"command": "figure",
           "parameters": {"name": "fig2", "output": str(out_path), "n_max": 8,
                          "ntilde_max": 10.0, "phi": 0.0, "json": False},
           "output_path": str(out_path), "seed": 0}
    manifest = tmp_path / "old.json"
    manifest.write_text(json.dumps(old, indent=2))
    code, _, _ = run_cli(capsys, "--manifest", str(manifest))
    assert code == 0
    assert out_path.read_bytes() == first


def test_manifest_missing_file(capsys):
    code, _, err = run_cli(capsys, "--manifest", "/nonexistent/m.json")
    assert code == 2
    assert "manifest" in err


@pytest.mark.parametrize("doc", [
    {"command": "qfi", "parameters": {"star": 3}},
    {"command": "qfi", "parameters": {"modality": "phase", "star": 3, "r": None,
                                      "target_n": None}},
    {"command": "fi", "parameters": {"modality": "phase", "star": 3, "r": 1.0,
                                     "beta": 0.2}},
    [1, 2],
])
def test_malformed_manifest_is_usage_error(tmp_path, capsys, doc):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--manifest", str(manifest))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"command": "figure", "parameters": {"name": "fig2", "n_max": 4, "output": 1}},
    {"command": "figure", "parameters": {"name": "fig2", "n_max": 4, "output": True}},
    {"command": "graph-info", "parameters": {"edges": 1}},
])
def test_manifest_path_is_not_a_file_descriptor(tmp_path, capsys, doc):
    # open() would take an integer as a descriptor: write to stdout and close it
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--manifest", str(manifest))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid manifest parameter: expected str")
    assert err.count("\n") == 1


def test_manifest_replays_negative_values(tmp_path, capsys):
    # saved as "r": -0.5 and "f": "-1,2,0.5", which must replay as values, not options
    manifest = tmp_path / "run.json"
    code, first, _ = run_cli(capsys, "qfi", "phase", "--star", "3", "--r=-0.5",
                             "--f=-1,2,0.5", "--save-manifest", str(manifest))
    assert code == 0
    saved = json.loads(manifest.read_text())["parameters"]
    assert (saved["r"], saved["f"]) == (-0.5, "-1,2,0.5")
    code, replay, err = run_cli(capsys, "--manifest", str(manifest))
    assert (code, replay, err) == (0, first, "")


QFI_STAR3 = {"modality": "phase", "star": 3, "r": 1.0, "f": "1"}


# each of these once ran with a value the parser would not have produced
@pytest.mark.parametrize("doc", [
    {"command": "qfi", "parameters": {**QFI_STAR3, "star": 3.7}},
    {"command": "qfi", "parameters": {**QFI_STAR3, "r": True}},
    {"command": "verify", "parameters": {"suite": "photon", "cases": True, "seed": 1}},
    {"command": "figure", "parameters": {"name": "fig2", "n_max": 4, "json": -1}},
    {"command": "graph-info", "parameters": {"star": 3, "empty": 3}},
    {"command": "fi", "parameters": {**QFI_STAR3, "optimize": True, "alpha": 0.3,
                                     "beta": 0.2}},
    {"command": "graph-info", "parameters": [["star", 3]]},
    {"command": "qfi", "parameters": {**QFI_STAR3, "colour": "red"}},
    {"command": "graph-info", "parameters": {"star": 3, "save_manifest": "again.json"}},
], ids=["float-int", "bool-float", "bool-int", "int-flag", "two-graphs",
        "optimize-and-angles", "pairs", "unknown-key", "save-manifest-key"])
def test_manifest_is_checked_like_the_command_line(tmp_path, monkeypatch, capsys, doc):
    monkeypatch.chdir(tmp_path)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--manifest", str(manifest))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "again.json").exists()


@pytest.mark.parametrize("argv", [
    ("qfi", "phase", "--r", "1", "--edges"),
    ("figure", "fig2", "--n-max", "8", "--output"),
])
def test_missing_path_is_usage_error(tmp_path, capsys, argv):
    missing = tmp_path / "missing" / "file"
    code, out, err = run_cli(capsys, *argv, str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert err.count("\n") == 1


def test_command_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    # stands in for a graph too large to allocate, e.g. --star 10000000
    def exhausted(n):
        raise MemoryError(f"Unable to allocate {n}x{n} adjacency")

    monkeypatch.setattr(cli, "star_graph", exhausted)
    code, out, err = run_cli(capsys, "qfi", "phase", "--star", "10000000", "--r", "1")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 10000000x10000000 adjacency\n"
