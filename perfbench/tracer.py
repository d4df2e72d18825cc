"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces each traced function of the cvgraphsense modules by
a timing wrapper in every namespace that binds it: the module that defines
it, the modules that import it by name, and the `oracle.SUITES` table. Calls
that look the name up at call time therefore pass through the wrapper.
`Graph.__post_init__` (graph validation) is wrapped on the class, and
`homodyne.minimize` gets a wrapper that records each Nelder-Mead result.
`uninstall` puts every original back. No file of the program changes.

A span's self time is its duration minus the time its child spans cover.
Layers are the program's modules; the metric names are listed in METRICS.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

# module -> {function: layer}; functions marked with '*' add self time to
# their layer but are not counted as calls of it
SPANS = {
    "graph": {
        "star_graph": "graph.construct*", "empty_graph": "graph.construct*",
        "multipartite_graph": "graph.construct*",
        "rectangular_graph": "graph.construct*",
        "graph_from_edges": "graph.construct*",
        "load_edge_list": "graph.parse", "parse_edge_list": "graph.parse*",
        "trace_power": "graph.trace_power",
        "adjacency_square_sum": "graph.trace_power*",
        "chi_phase": "graph.trace_power*", "chi_disp": "graph.trace_power*",
    },
    "gaussian": {
        "graph_state_covariance": "gaussian.covariance",
        "mean_photon_number": "gaussian.photon",
        "photon_number_from_covariance": "gaussian.photon",
        "squeeze_for_photon_budget": "gaussian.budget",
    },
    "qfi": {
        "qfi_phase_closed_form": "qfi.closed", "qfi_phase_equal_f": "qfi.closed",
        "qfi_displacement_closed_form": "qfi.closed",
        "qfi_phase_generic": "qfi.generic", "phase_generator": "qfi.generic*",
        "qfi_displacement": "qfi.quadratic",
    },
    "homodyne": {
        "phase_measurement_moments": "homodyne.moments",
        "displacement_measurement_moments": "homodyne.moments",
        "diag_trig_matrices": "homodyne.moments*",
        "gaussian_fisher_information": "homodyne.fisher",
        "fi_star_ansatz": "homodyne.ansatz",
        "optimize_angles": "homodyne.optimize",
    },
    "oracle": {
        "run_phase_equivalence": "oracle.phase",
        "run_displacement_equivalence": "oracle.displacement",
        "run_photon_identity": "oracle.photon",
        "run_fi_derivative_check": "oracle.derivatives",
    },
    "figures": {
        "figure_table": "figures.sweep*", "scaling_rows": "figures.sweep*",
        "saturation_rows": "figures.sweep*", "n_grid": "figures.sweep*",
    },
    "cli": {"main": "cli"},
}
GRAPH_VALIDATION = "graph.validate"


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, better, value from one pass's totals t); t is a Counter keyed
# by ("calls" | "self" | "incl", layer) and ("count", counter name)
METRICS = {
    "graph.build_calls": ("count", "lower", lambda t: t["calls", GRAPH_VALIDATION]),
    "graph.build_s": ("s", "lower",
                      lambda t: t["self", "graph.construct"] + t["self", GRAPH_VALIDATION]),
    "graph.parse_calls": ("count", "lower", lambda t: t["calls", "graph.parse"]),
    "graph.parse_s": ("s", "lower", lambda t: t["self", "graph.parse"]),
    "graph.trace_power_calls": ("count", "lower", lambda t: t["calls", "graph.trace_power"]),
    "graph.trace_power_s": ("s", "lower", lambda t: t["self", "graph.trace_power"]),
    "gaussian.budget_calls": ("count", "lower", lambda t: t["calls", "gaussian.budget"]),
    "gaussian.budget_s": ("s", "lower", lambda t: t["self", "gaussian.budget"]),
    "gaussian.photon_evals_per_budget": (
        "count", "lower",
        lambda t: _ratio(t["count", "budget_photon_evals"], t["calls", "gaussian.budget"])),
    "gaussian.photon_calls": ("count", "lower", lambda t: t["calls", "gaussian.photon"]),
    "gaussian.photon_s": ("s", "lower", lambda t: t["self", "gaussian.photon"]),
    "gaussian.covariance_calls": ("count", "lower", lambda t: t["calls", "gaussian.covariance"]),
    "gaussian.covariance_s": ("s", "lower", lambda t: t["self", "gaussian.covariance"]),
    "qfi.closed_calls": ("count", "lower", lambda t: t["calls", "qfi.closed"]),
    "qfi.closed_s": ("s", "lower", lambda t: t["self", "qfi.closed"]),
    "qfi.generic_calls": ("count", "lower", lambda t: t["calls", "qfi.generic"]),
    "qfi.generic_s": ("s", "lower", lambda t: t["self", "qfi.generic"]),
    "qfi.quadratic_calls": ("count", "lower", lambda t: t["calls", "qfi.quadratic"]),
    "qfi.quadratic_s": ("s", "lower", lambda t: t["self", "qfi.quadratic"]),
    "homodyne.optimize_calls": ("count", "lower", lambda t: t["calls", "homodyne.optimize"]),
    # whole optimize_angles span, evaluations included
    "homodyne.optimize_s": ("s", "lower", lambda t: t["incl", "homodyne.optimize"]),
    "homodyne.optimize_self_s": (
        "s", "lower",
        lambda t: t["incl", "homodyne.optimize"] - t["incl", "objective"]),
    "homodyne.objective_evals": ("count", "lower", lambda t: t["count", "objective_evals"]),
    "homodyne.objective_us": (
        "us", "lower",
        lambda t: 1e6 * _ratio(t["incl", "objective"], t["count", "objective_evals"])),
    "homodyne.starts": ("count", "lower", lambda t: t["count", "starts"]),
    "homodyne.starts_converged": ("count", "higher", lambda t: t["count", "starts_converged"]),
    "homodyne.refine_evals": ("count", "lower", lambda t: t["count", "refine_evals"]),
    "homodyne.refine_converged": ("count", "higher", lambda t: t["count", "refine_converged"]),
    "homodyne.ansatz_calls": ("count", "lower", lambda t: t["calls", "homodyne.ansatz"]),
    "homodyne.ansatz_s": ("s", "lower", lambda t: t["self", "homodyne.ansatz"]),
    "homodyne.moments_calls": ("count", "lower", lambda t: t["calls", "homodyne.moments"]),
    "homodyne.moments_s": ("s", "lower", lambda t: t["self", "homodyne.moments"]),
    "homodyne.fisher_calls": ("count", "lower", lambda t: t["calls", "homodyne.fisher"]),
    "homodyne.fisher_s": ("s", "lower", lambda t: t["self", "homodyne.fisher"]),
    "oracle.cases": ("count", "higher", lambda t: t["count", "oracle_cases"]),
    "oracle.phase_s": ("s", "lower", lambda t: t["self", "oracle.phase"]),
    "oracle.displacement_s": ("s", "lower", lambda t: t["self", "oracle.displacement"]),
    "oracle.photon_s": ("s", "lower", lambda t: t["self", "oracle.photon"]),
    "oracle.derivatives_s": ("s", "lower", lambda t: t["self", "oracle.derivatives"]),
    "figures.rows": ("count", "higher", lambda t: t["count", "figure_rows"]),
    "figures.sweep_s": ("s", "lower", lambda t: t["self", "figures.sweep"]),
    "cli.ops": ("count", "higher", lambda t: t["calls", "cli"]),
    "cli.self_s": ("s", "lower", lambda t: t["self", "cli"]),
    "trace.spans": ("count", "lower", lambda t: t["count", "spans"]),
}


def metrics(totals):
    return {name: fn(totals) for name, (_, _, fn) in METRICS.items()}


class Tracer:
    def __init__(self):
        self.totals = Counter()
        self._children = []      # child seconds of each open span
        self._optimize_runs = []  # Nelder-Mead results of each open optimize
        self._budget_depth = 0
        self._restore = []

    # -- spans

    def _span(self, layer, func, before=None, after=None):
        counted = not layer.endswith("*")
        layer = layer.rstrip("*")
        totals = self.totals
        children = self._children

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before:
                before(args)
            children.append(0.0)
            result = None  # what `after` sees when func raises
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                totals["self", layer] += dt - child
                totals["incl", layer] += dt
                totals["count", "spans"] += 1
                if counted:
                    totals["calls", layer] += 1
                if after:
                    after(args, result, dt)
            return result

        return wrapper

    # -- hooks for counts that need the calling context

    def _budget_enter(self, args):
        self._budget_depth += 1

    def _budget_exit(self, args, result, dt):
        self._budget_depth -= 1

    def _photon_exit(self, args, result, dt):
        if self._budget_depth:
            self.totals["count", "budget_photon_evals"] += 1

    def _optimize_enter(self, args):
        self._optimize_runs.append([])

    def _optimize_exit(self, args, result, dt):
        runs = self._optimize_runs.pop()
        totals = self.totals
        if runs:
            *starts, refine = runs
            totals["count", "starts"] += len(starts)
            totals["count", "starts_converged"] += sum(bool(res.success) for res in starts)
            totals["count", "refine_evals"] += int(refine.nfev)
            totals["count", "refine_converged"] += bool(refine.success)

    def _objective_exit(self, args, result, dt):
        if self._optimize_runs:
            self.totals["count", "objective_evals"] += 1
            self.totals["incl", "objective"] += dt

    def _oracle_exit(self, args, result, dt):
        self.totals["count", "oracle_cases"] += int(args[0])

    def _rows_exit(self, args, result, dt):
        rows = result[0] if isinstance(result, tuple) else result or []
        self.totals["count", "figure_rows"] += len(rows)

    def _minimize(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            res = func(*args, **kwargs)
            if self._optimize_runs:
                self._optimize_runs[-1].append(res)
            return res

        return wrapper

    # -- installation

    def install(self, package):
        """Wrap the traced functions of `package` (the cvgraphsense module)."""
        name = package.__name__
        modules = {short: sys.modules[f"{name}.{short}"] for short in SPANS}
        hooks = {
            "squeeze_for_photon_budget": (self._budget_enter, self._budget_exit),
            "mean_photon_number": (None, self._photon_exit),
            "optimize_angles": (self._optimize_enter, self._optimize_exit),
            "fi_star_ansatz": (None, self._objective_exit),
            "scaling_rows": (None, self._rows_exit),
            "saturation_rows": (None, self._rows_exit),
        }
        for fn in SPANS["oracle"]:
            hooks[fn] = (None, self._oracle_exit)
        replace = {}
        for short, table in SPANS.items():
            for fn, layer in table.items():
                orig = getattr(modules[short], fn)
                before, after = hooks.get(fn, (None, None))
                replace[id(orig)] = (orig, self._span(layer, orig, before, after))
        homodyne = modules["homodyne"]
        replace[id(homodyne.minimize)] = (homodyne.minimize, self._minimize(homodyne.minimize))

        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        namespaces.append(modules["oracle"].SUITES)
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = replace.get(id(value))
                if hit and hit[0] is value:
                    self._restore.append((ns, key, value))
                    ns[key] = hit[1]

        graph_cls = modules["graph"].Graph
        post_init = graph_cls.__dict__["__post_init__"]
        graph_cls.__post_init__ = self._span(GRAPH_VALIDATION, post_init)
        self._restore.append((graph_cls, "__post_init__", post_init))

    def uninstall(self):
        while self._restore:
            ns, key, value = self._restore.pop()
            if isinstance(ns, dict):
                ns[key] = value
            else:
                setattr(ns, key, value)
