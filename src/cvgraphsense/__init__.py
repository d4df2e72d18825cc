"""Fisher information of continuous-variable graph-state probes.

Builds graph-state covariance matrices, evaluates the quantum Fisher
information for phase and displacement sensing in closed and generic form,
computes the classical Fisher information of per-mode homodyne detection
with angle optimization, and reproduces the scaling/saturation sweep tables.
"""

from .gaussian import (GaussianState, graph_state_covariance,
                       mean_photon_number, photon_number_from_covariance,
                       squeeze_for_photon_budget)
from .graph import (EdgelessGraphError, Graph, adjacency_square_sum, chi_disp,
                    chi_phase, empty_graph, graph_from_edges, load_edge_list,
                    multipartite_graph, parse_edge_list, rectangular_graph,
                    star_graph, trace_power)
from .homodyne import (HomodyneSetting, MeasurementMoments,
                       displacement_measurement_moments, fi_monte_carlo,
                       fi_star_ansatz, gaussian_fisher_information,
                       optimize_angles, phase_measurement_moments,
                       saturate_displacement)
from .oracle import (EquivalenceReport, central_difference,
                     run_displacement_equivalence, run_fi_derivative_check,
                     run_phase_equivalence, run_photon_identity)
from .qfi import (qfi_displacement, qfi_displacement_closed_form,
                  qfi_displacement_star_asymptote, qfi_phase_closed_form,
                  qfi_phase_equal_f, qfi_phase_generic,
                  qfi_phase_separable_asymptote, qfi_phase_star_asymptote)

__version__ = "0.1.0"

__all__ = [
    "EdgelessGraphError", "EquivalenceReport", "GaussianState", "Graph",
    "HomodyneSetting", "MeasurementMoments", "adjacency_square_sum",
    "central_difference", "chi_disp", "chi_phase",
    "displacement_measurement_moments", "empty_graph", "fi_monte_carlo",
    "fi_star_ansatz", "gaussian_fisher_information", "graph_from_edges",
    "graph_state_covariance", "load_edge_list", "mean_photon_number",
    "multipartite_graph", "optimize_angles", "parse_edge_list",
    "phase_measurement_moments", "photon_number_from_covariance",
    "qfi_displacement", "qfi_displacement_closed_form",
    "qfi_displacement_star_asymptote", "qfi_phase_closed_form",
    "qfi_phase_equal_f", "qfi_phase_generic", "qfi_phase_separable_asymptote",
    "qfi_phase_star_asymptote", "rectangular_graph",
    "run_displacement_equivalence", "run_fi_derivative_check",
    "run_phase_equivalence", "run_photon_identity", "saturate_displacement",
    "squeeze_for_photon_budget", "star_graph", "trace_power",
]
