"""The input contract of every public entry: one (r, f, modality) rule set.

Every entry that takes a squeeze parameter rejects a NaN or |r| > 10, every
entry that takes responsivities rejects f of the wrong length, with a NaN or
all zero, and every entry that takes a modality rejects an unknown one, each
with a ValueError carrying the same message.
"""

import numpy as np
import pytest

from cvgraphsense.gaussian import graph_state_covariance, mean_photon_number
from cvgraphsense.graph import star_graph
from cvgraphsense.homodyne import (HomodyneSetting, displacement_measurement_moments,
                                   fi_star_ansatz, optimize_angles,
                                   phase_measurement_moments, saturate_displacement)
from cvgraphsense.qfi import (qfi, qfi_displacement, qfi_displacement_closed_form,
                              qfi_phase_closed_form, qfi_phase_equal_f, qfi_phase_generic)

G = star_graph(3)
STATE = graph_state_covariance(G, 1.0)
SETTING = HomodyneSetting([0.1, 0.2, 0.3])

# name -> (native modality, inputs it takes, call(r, f, modality))
ENTRIES = {
    "graph_state_covariance": ("phase", "r", lambda r, f, m: graph_state_covariance(G, r)),
    "mean_photon_number": ("phase", "r", lambda r, f, m: mean_photon_number(G, r)),
    "qfi_phase_closed_form": ("phase", "rf", lambda r, f, m: qfi_phase_closed_form(G, r, f)),
    "qfi_displacement_closed_form": (
        "displacement", "rf", lambda r, f, m: qfi_displacement_closed_form(G, r, f)),
    "qfi_phase_equal_f": ("phase", "r", lambda r, f, m: qfi_phase_equal_f(G, r, 1.0)),
    "qfi_phase_generic": ("phase", "f", lambda r, f, m: qfi_phase_generic(STATE, f)),
    "qfi_displacement": ("displacement", "f", lambda r, f, m: qfi_displacement(STATE, f)),
    "qfi": ("phase", "rfm", lambda r, f, m: qfi(G, r, f, m)),
    "phase_measurement_moments": (
        "phase", "rf", lambda r, f, m: phase_measurement_moments(G, r, f, 0.0, SETTING)),
    "displacement_measurement_moments": (
        "displacement", "rf",
        lambda r, f, m: displacement_measurement_moments(G, r, f, 0.0, SETTING)),
    "fi_star_ansatz": ("phase", "rfm", lambda r, f, m: fi_star_ansatz(G, r, f, 0.0, 0.1, 0.2, m)),
    "optimize_angles": ("phase", "rf", lambda r, f, m: optimize_angles(G, r, f, 0.0)),
    "saturate_displacement": (
        "displacement", "rf", lambda r, f, m: saturate_displacement(G, r, f)),
}


def _good_f(modality):
    return np.linspace(0.5, 1.5, G.n if modality == "phase" else 2 * G.n)


def _bad_f(kind, modality):
    f = _good_f(modality)
    if kind == "length":
        return f[:-1]
    if kind == "nan":
        f[1] = np.nan
        return f
    return np.zeros_like(f)


# case -> (input, message)
CASES = {
    "r-nan": ("r", "squeeze parameter must satisfy"),
    "r-10.5": ("r", "squeeze parameter must satisfy"),
    "f-length": ("f", "f must have length"),
    "f-nan": ("f", "f must be finite"),
    "f-zero": ("f", "f must have at least one nonzero entry"),
    "modality": ("m", "unknown modality 'amplitude'"),
}


@pytest.mark.parametrize("entry, case", [(e, c) for e in ENTRIES for c in CASES
                                         if CASES[c][0] in ENTRIES[e][1]])
def test_entry_rejects_bad_input(entry, case):
    modality, _, call = ENTRIES[entry]
    which, message = CASES[case]
    r, f, m = 1.0, _good_f(modality), modality
    if which == "r":
        r = float(case.split("-")[1])
    elif which == "f":
        f = _bad_f(case.split("-")[1], modality)
    else:
        m = "amplitude"
    with pytest.raises(ValueError, match=message):
        call(r, f, m)


@pytest.mark.parametrize("f_scalar, message", [
    (np.nan, "f must be finite"), (0.0, "f must have at least one nonzero entry")])
def test_equal_f_rejects_bad_scalar(f_scalar, message):
    with pytest.raises(ValueError, match=message):
        qfi_phase_equal_f(G, 1.0, f_scalar)


def test_setting_rejects_non_finite_theta():
    with pytest.raises(ValueError, match="theta must be finite"):
        HomodyneSetting([np.nan, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("moments", [phase_measurement_moments,
                                     displacement_measurement_moments])
def test_moments_reject_non_finite_phi(moments):
    f = _good_f("phase" if moments is phase_measurement_moments else "displacement")
    with pytest.raises(ValueError, match="phi must be finite"):
        moments(G, 1.0, f, np.nan, SETTING)


@pytest.mark.parametrize("phi, alpha, beta, name", [
    (np.nan, 0.1, 0.2, "phi"), (0.0, np.inf, 0.2, "alpha"), (0.0, 0.1, -np.inf, "beta")])
def test_ansatz_rejects_non_finite_angles(phi, alpha, beta, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        fi_star_ansatz(G, 1.0, np.ones(3), phi, alpha, beta, "phase")


def test_optimizer_rejects_non_finite_phi():
    with pytest.raises(ValueError, match="phi must be finite"):
        optimize_angles(star_graph(4), 1.0, np.ones(4), np.nan)
