"""Fisher information of continuous-variable graph-state probes.

The package root exports the documented API: graph builders, the graph-state
covariance, both QFIs, homodyne moments and the two angle rules. Everything
else is imported from its module (graph, gaussian, qfi, homodyne, oracle,
figures, cli).
"""

from .gaussian import GaussianState, graph_state_covariance, mean_photon_number
from .graph import (Graph, empty_graph, graph_from_edges, load_edge_list,
                    multipartite_graph, rectangular_graph, star_graph)
from .homodyne import (HomodyneSetting, displacement_measurement_moments, fi_star_ansatz,
                       optimize_angles, phase_measurement_moments, saturate_displacement)
from .qfi import qfi_displacement, qfi_phase_closed_form

__version__ = "0.1.0"

__all__ = [
    "GaussianState", "Graph", "HomodyneSetting", "displacement_measurement_moments",
    "empty_graph", "fi_star_ansatz", "graph_from_edges", "graph_state_covariance",
    "load_edge_list", "mean_photon_number", "multipartite_graph", "optimize_angles",
    "phase_measurement_moments", "qfi_displacement", "qfi_phase_closed_form",
    "rectangular_graph", "saturate_displacement", "star_graph",
]
