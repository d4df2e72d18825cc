"""Randomized equivalence suites and their helpers."""

import json

import numpy as np
import pytest

from cvgraphsense import cli, oracle, qfi
from cvgraphsense.graph import Graph
from cvgraphsense.homodyne import _moments
from cvgraphsense.oracle import (
    DERIVATIVE_TOL,
    PHOTON_TOL,
    QFI_TOL,
    SUITES,
    rel_error,
    run_all,
    run_displacement_equivalence,
    run_fi_derivative_check,
    run_phase_equivalence,
    run_photon_identity,
)


def test_rel_error():
    assert rel_error(1.0, 1.0) == 0.0
    assert rel_error(0.0, 0.0) == 0.0
    assert rel_error(2.0, 1.0) == pytest.approx(0.5)
    assert rel_error(0.0, 1e-20) == pytest.approx(1.0)
    # no absolute floor: the two routes of `qfi phase --star 3 --r 1 --f 1e-161`
    assert rel_error(5.161997868e-320, 5.191641806e-320) == pytest.approx(5.7e-3, rel=0.01)
    assert rel_error(1e-323, 0.0) == 1.0
    assert np.isnan(rel_error(0.0, float("nan")))


def test_phase_suite_passes():
    rep = run_phase_equivalence(200, seed=42)
    assert rep.passed
    assert rep.case_count == 200
    assert rep.max_rel_error <= QFI_TOL
    assert rep.tolerance == QFI_TOL


def test_displacement_suite_passes():
    rep = run_displacement_equivalence(200, seed=42)
    assert rep.passed
    assert rep.max_rel_error <= QFI_TOL


def test_photon_suite_passes():
    rep = run_photon_identity(200, seed=42)
    assert rep.passed
    assert rep.max_rel_error <= PHOTON_TOL


def test_derivative_suite_passes():
    rep = run_fi_derivative_check(100, seed=42)
    assert rep.passed
    assert rep.max_rel_error <= DERIVATIVE_TOL


OUTPUTS = {"d_sigma": 1, "d_omega": 2}  # `_moments` returns (B^T, d sigma_M, d omega)


def _shifted(modality, field, index, step=1e-4):
    """`_moments` with one entry of its `field` output moved by step in every row
    of a `modality` call (where the mode count allows); a NaN step makes it NaN."""
    def wrapped(a, r, f, psi, called):
        out = _moments(a, r, f, psi, called)
        d = out[OUTPUTS[field]]
        if called == modality and d.shape[-1] > index[-1]:
            d[(slice(None),) + index] += step
        return out
    return wrapped


@pytest.mark.parametrize("name,field,index", [
    ("phase_measurement_moments", "d_sigma", (0, 1)),
    ("displacement_measurement_moments", "d_omega", (0,)),
])
def test_derivative_suite_catches_wrong_derivative(monkeypatch, name, field, index):
    # the suite reads the kernel behind the named view's field, so the shift goes there
    modality = name.split("_")[0]
    monkeypatch.setattr(oracle, "_moments", _shifted(modality, field, index))
    for seed in (1, 2):
        assert not run_fi_derivative_check(20, seed).passed


def test_derivative_suite_fails_on_nan_derivative(monkeypatch):
    monkeypatch.setattr(oracle, "_moments", _shifted("phase", "d_sigma", (0, 0), float("nan")))
    rep = run_fi_derivative_check(20, seed=1)
    assert not rep.passed
    assert np.isnan(rep.max_rel_error)
    assert rep.worst_case.startswith("star(")  # the first draw


def test_equivalence_suite_fails_on_nan_cross_check(monkeypatch):
    monkeypatch.setattr(qfi, "cross_check", lambda g, r, f, modality: (1.0, float("nan")))
    rep = run_phase_equivalence(20, 1)
    assert not rep.passed
    assert np.isnan(rep.max_rel_error)
    assert rep.worst_case.startswith("star(")  # the first draw
    assert rep.to_dict()["max_rel_error"] == "nan"


def test_verify_exits_1_on_nan_derivative(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_moments", _shifted("phase", "d_sigma", (0, 0), float("nan")))
    code = cli.main(["verify", "derivatives", "--cases", "5"])
    out = capsys.readouterr()
    assert (code, out.err) == (1, "")
    (report,) = json.loads(out.out)
    assert (report["max_rel_error"], report["passed"]) == ("nan", False)


def test_random_graph_matches_the_triu_draw():
    # the upper-triangle expression the mask replaced, kept as the oracle
    for n in range(1, 9):
        for seed in range(60):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            a = np.triu((ref.random((n, n)) < 0.5).astype(np.int64), 1)
            g = oracle._random_graph(rng, n)
            assert g == Graph(n, a + a.T) and g.label == f"random({n})"
            assert rng.random() == ref.random()  # the same draws consumed


def test_suites_deterministic():
    a = run_phase_equivalence(50, seed=7)
    b = run_phase_equivalence(50, seed=7)
    assert a.max_rel_error == b.max_rel_error
    assert a.worst_case == b.worst_case


def test_seed_changes_worst_case():
    a = run_photon_identity(50, seed=1)
    b = run_photon_identity(50, seed=2)
    # different draws; the recorded errors should not coincide exactly
    assert a.max_rel_error != b.max_rel_error


def test_report_passed_matches_threshold():
    rep = run_displacement_equivalence(50, seed=3)
    assert rep.passed == (rep.max_rel_error <= rep.tolerance)


def test_report_serializable():
    rep = run_photon_identity(20, seed=9)
    d = rep.to_dict()
    text = json.dumps(d)
    assert "max_rel_error" in text
    assert d["name"] == rep.name


def test_run_all_covers_every_suite():
    reports = run_all(20, seed=13)
    assert [r.name for r in reports] == ["phase_equivalence", "displacement_equivalence",
                                         "photon_identity", "fi_derivative_check"]
    assert len(reports) == len(SUITES)
    assert all(r.passed for r in reports)


def test_worst_case_names_a_graph():
    rep = run_phase_equivalence(50, seed=42)
    assert rep.worst_case  # non-empty description of the extremal draw
