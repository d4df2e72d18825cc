"""The package root exports the documented API; everything else lives in its module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cvgraphsense

# module -> the names the README shows, exported by the root as well
ROOT = {
    "gaussian": ["GaussianState", "graph_state_covariance", "mean_photon_number"],
    "graph": ["Graph", "empty_graph", "graph_from_edges", "load_edge_list",
              "multipartite_graph", "rectangular_graph", "star_graph"],
    "homodyne": ["HomodyneSetting", "displacement_measurement_moments", "fi_star_ansatz",
                 "optimize_angles", "phase_measurement_moments", "saturate_displacement"],
    "qfi": ["qfi_displacement", "qfi_phase_closed_form"],
}
# module -> names imported from the module alone
MODULE_ONLY = {
    "gaussian": ["photon_number_from_covariance", "squeeze_for_photon_budget"],
    "graph": ["EdgelessGraphError", "adjacency_square_sum", "chi_disp", "chi_phase",
              "parse_edge_list", "trace_power"],
    "homodyne": ["MeasurementMoments", "fi_monte_carlo", "gaussian_fisher_information"],
    "oracle": ["EquivalenceReport", "run_displacement_equivalence",
               "run_fi_derivative_check", "run_phase_equivalence", "run_photon_identity"],
    "qfi": ["qfi_displacement_closed_form", "qfi_displacement_star_asymptote",
            "qfi_phase_equal_f", "qfi_phase_generic", "qfi_phase_separable_asymptote",
            "qfi_phase_star_asymptote"],
}


def test_root_exports_the_documented_api_only():
    assert sorted(cvgraphsense.__all__) == sorted(n for names in ROOT.values() for n in names)
    for module, names in ROOT.items():
        defining = importlib.import_module(f"cvgraphsense.{module}")
        for name in names:
            assert getattr(cvgraphsense, name) is getattr(defining, name), name
    assert sum(map(len, MODULE_ONLY.values())) == 22
    for module, names in MODULE_ONLY.items():
        defining = importlib.import_module(f"cvgraphsense.{module}")
        for name in names:
            assert hasattr(defining, name), f"cvgraphsense.{module}.{name}"
            assert not hasattr(cvgraphsense, name), name
    # a fresh interpreter: the root loads neither the verify suites nor the figures
    src = str(Path(cvgraphsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = ("import sys, cvgraphsense\n"
              "print(' '.join(m for m in ('cvgraphsense.oracle', 'cvgraphsense.figures')"
              " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_perfbench_tracer_counts_one_build_per_graph(monkeypatch):
    # perfbench/tracer.py wraps the program's functions by name, and counts
    # graph.build_calls through Graph.__post_init__, which every constructor
    # calls once; a refactor that breaks either shows here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    for module in tracer.SPANS:
        importlib.import_module(f"cvgraphsense.{module}")
    graph_cls, cli = cvgraphsense.Graph, importlib.import_module("cvgraphsense.cli")
    post_init, main = graph_cls.__dict__["__post_init__"], cli.main
    tr = tracer.Tracer()
    tr.install(cvgraphsense)
    try:
        cvgraphsense.Graph(2, np.array([[0, 1], [1, 0]]))
        cvgraphsense.star_graph(4)
        cvgraphsense.graph_from_edges(3, [(1, 2), (2, 3)])
    finally:
        tr.uninstall()
    assert tracer.metrics(tr.totals)["graph.build_calls"] == 3
    assert graph_cls.__dict__["__post_init__"] is post_init and cli.main is main
