"""Randomized equivalence suites and their helpers."""

import json

import dataclasses

import numpy as np
import pytest

from cvgraphsense import oracle
from cvgraphsense.oracle import (
    DERIVATIVE_TOL,
    PHOTON_TOL,
    QFI_TOL,
    SUITES,
    central_difference,
    rel_error,
    run_all,
    run_displacement_equivalence,
    run_fi_derivative_check,
    run_phase_equivalence,
    run_photon_identity,
)


def test_central_difference_quadratic():
    assert central_difference(lambda x: x * x, 3.0, 1e-5) == pytest.approx(6.0, abs=1e-9)


def test_central_difference_constant():
    assert central_difference(lambda x: 7.0, 1.0, 1e-5) == 0.0


def test_central_difference_sin():
    assert central_difference(np.sin, 0.0, 1e-6) == pytest.approx(1.0, abs=1e-10)


def test_central_difference_rejects_bad_step():
    with pytest.raises(ValueError):
        central_difference(np.sin, 0.0, 0.0)


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


def _shifted(moments, field, index):
    """`moments` with one derivative entry off by 1e-4 (where the mode count allows)."""
    def wrapped(g, r, f, phi, setting):
        m = moments(g, r, f, phi, setting)
        d = getattr(m, field).copy()
        if d.size > index[-1]:
            d[index] += 1e-4
        return dataclasses.replace(m, **{field: d})
    return wrapped


@pytest.mark.parametrize("name,field,index", [
    ("phase_measurement_moments", "d_sigma", (0, 1)),
    ("displacement_measurement_moments", "d_omega", (0,)),
])
def test_derivative_suite_catches_wrong_derivative(monkeypatch, name, field, index):
    monkeypatch.setattr(oracle, name, _shifted(getattr(oracle, name), field, index))
    for seed in (1, 2):
        assert not run_fi_derivative_check(20, seed).passed


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
