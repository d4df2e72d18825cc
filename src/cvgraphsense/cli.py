"""Command-line interface.

Subcommands: graph-info (trace ratios of a graph), qfi (quantum Fisher
information with a built-in cross-check), fi (homodyne Fisher information,
fixed angles or optimized; displacement angles in closed form), figure
(scaling/saturation sweep tables as CSV), and verify (randomized equivalence
suites). Every subcommand accepts --save-manifest to record the run;
`cvgraphsense --manifest path` replays a recorded run through the identical
code path, reproducing byte-identical output. Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import figures, oracle, qfi
from .gaussian import check_finite, mean_photon_number, squeeze_for_photon_budget
from .graph import (EdgelessGraphError, adjacency_square_sum, chi_disp,
                    chi_phase, empty_graph, load_edge_list,
                    multipartite_graph, rectangular_graph, star_graph,
                    trace_power)
from .homodyne import fi_star_ansatz, optimize_angles, saturate_displacement


def _fmt(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return ";".join(_fmt(x) for x in v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.12g}"


def write_csv(columns, rows):
    """CSV text: a header of `columns`, then one line per row."""
    lines = [",".join(columns)] + [",".join(_fmt(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def render(data, columns=None):
    """A mapping as a JSON object or a list of mappings as a JSON array; as CSV
    of `columns` when they are given. Values are strings, numbers or lists of
    numbers; a non-finite number (an overflow of the inputs) is a usage error,
    in either format, rather than output."""
    rows = [data] if isinstance(data, dict) else data
    for row in rows:
        for key, value in row.items():
            finite = (all(map(math.isfinite, value)) if isinstance(value, list)
                      else isinstance(value, str) or math.isfinite(value))
            if not finite:
                raise ValueError(f"{key} is not finite ({_fmt(value)}); the inputs overflow "
                                 "double precision")
    if columns is None:
        return json.dumps(data, indent=2, allow_nan=False) + "\n"
    return write_csv(columns, rows)


def build_graph(params):
    if params["star"] is not None:
        return star_graph(params["star"])
    if params["multipartite"] is not None:
        return multipartite_graph(*params["multipartite"])
    if params["rectangular"] is not None:
        return rectangular_graph(params["rectangular"])
    if params["empty"] is not None:
        return empty_graph(params["empty"])
    return load_edge_list(params["edges"])


def parse_f(spec, length):
    """Responsivity vector from a single float or a comma-separated list."""
    parts = [p for p in spec.split(",") if p.strip() != ""]
    if len(parts) == 1:
        return np.full(length, float(parts[0]))
    if len(parts) != length:
        raise ValueError(f"expected 1 or {length} responsivity entries, got {len(parts)}")
    return np.array([float(p) for p in parts])


def _query(params):
    """(graph, modality, r, f) of a qfi or fi query: r from --r or solved from
    the --target-N photon budget; f with n entries for phase, 2n for displacement."""
    g, modality, target = build_graph(params), params["modality"], params["target_n"]
    r = params["r"] if target is None else squeeze_for_photon_budget(g, target)
    return g, modality, r, parse_f(params["f"], g.n if modality == "phase" else 2 * g.n)


def run_graph_info(params, stream):
    g = build_graph(params)
    t2 = trace_power(g, 2)
    t4 = trace_power(g, 4)
    payload = {
        "graph": g.label,
        "n": g.n,
        "edge_count": g.edge_count,
        "trace_A2": t2,
        "trace_A4": t4,
        "sum_A2": adjacency_square_sum(g),
    }
    try:
        payload["chi_phase"] = chi_phase(g)
        payload["chi_disp"] = chi_disp(g)
    except EdgelessGraphError:
        payload["chi_phase"] = "undefined"
        payload["chi_disp"] = "undefined"
    stream.write(render(payload, list(payload) if params["csv"] else None))
    return 0


def run_qfi(params, stream):
    g, modality, r, f = _query(params)
    closed, cross = qfi.cross_check(g, r, f, modality)
    diff = oracle.rel_error(closed, cross)
    payload = {
        "value": closed,
        "closed_form": closed,
        "cross_check": cross,
        "rel_difference": diff,
        "modality": modality,
        "graph": g.label,
        "n": g.n,
        "r": r,
        "N_bar": mean_photon_number(g, r),
        "f": f.tolist(),
    }
    stream.write(render(payload, list(payload) if params["csv"] else None))
    if diff > oracle.QFI_TOL:
        stream.write(f"cross-check failed: relative difference {diff:.3e}\n")
        return 1
    return 0


def run_fi(params, stream):
    g, modality, r, f = _query(params)
    phi = check_finite(params["phi"], "--phi")
    theta = None
    if params["optimize"] and modality == "displacement":
        theta, fi = saturate_displacement(g, r, f)
        alpha, beta = float(theta[0]), float(theta[min(1, g.n - 1)])
    elif params["optimize"]:
        alpha, beta, fi = optimize_angles(g, r, f, phi)
    else:
        alpha = check_finite(params["alpha"], "--alpha")
        beta = check_finite(params["beta"], "--beta")
        fi = fi_star_ansatz(g, r, f, phi, alpha, beta, modality)
    q = qfi.qfi(g, r, f, modality)
    payload = {"value": fi, "modality": modality, "graph": g.label, "n": g.n, "r": r,
               "n_bar": mean_photon_number(g, r), "phi": phi, "alpha": alpha,
               "beta": beta, "qfi": q, "ratio": fi / q if q else "undefined"}
    if theta is not None:
        payload["theta"] = theta.tolist()
    stream.write(render(payload, list(payload) if params["csv"] else None))
    return 0


def run_figure(params, stream):
    columns, rows, warnings = figures.figure_table(
        params["name"], n_max=params["n_max"], ntilde_max=params["ntilde_max"],
        phi=params["phi"])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    text = render(rows, None if params["json"] else columns)  # rows hold just the columns
    if params["output"]:
        with open(params["output"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        stream.write(text)
    return 0


def run_verify(params, stream):
    cases, seed, suite = params["cases"], params["seed"], params["suite"]
    if cases < 1:
        raise ValueError("--cases must be at least 1")
    if seed < 0:
        raise ValueError("--seed must be non-negative")
    if suite == "all":
        reports = oracle.run_all(cases, seed)
    else:
        reports = [oracle.SUITES[suite](cases, seed)]
    stream.write(render([rep.to_dict() for rep in reports]))
    return 0 if all(rep.passed for rep in reports) else 1


RUNNERS = {
    "graph-info": run_graph_info,
    "qfi": run_qfi,
    "fi": run_fi,
    "figure": run_figure,
    "verify": run_verify,
}


class _Parser(argparse.ArgumentParser):
    """argparse, except that while it replays a manifest an error raises
    ValueError, for one `error:` line without the usage block."""
    replaying = False

    def error(self, message):
        if self.replaying:
            raise ValueError(message)
        super().error(message)


def _add_graph_args(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--star", type=int, metavar="N")
    grp.add_argument("--multipartite", type=int, nargs=2, metavar=("L", "M"))
    grp.add_argument("--rectangular", type=int, metavar="M")
    grp.add_argument("--empty", type=int, metavar="N")
    grp.add_argument("--edges", metavar="PATH")


def build_parser():
    parser = _Parser(
        prog="cvgraphsense",
        description="Fisher information of continuous-variable graph-state probes")
    parser.add_argument("--manifest", metavar="PATH",
                        help="replay a recorded run manifest")
    subs = parser.add_subparsers(dest="command")

    gi = subs.add_parser("graph-info", help="trace ratios and counts of a graph")
    _add_graph_args(gi)

    qf = subs.add_parser("qfi", help="quantum Fisher information with cross-check")
    fi = subs.add_parser(
        "fi", help="homodyne Fisher information: two star angles (alpha on the hub, "
                   "beta on the leaves), or --optimize; displacement --optimize "
                   "takes any graph and prints per-mode angles as theta")
    for sub in (qf, fi):  # the query that _query reads
        sub.add_argument("modality", choices=("phase", "displacement"))
        _add_graph_args(sub)
        rgrp = sub.add_mutually_exclusive_group(required=True)
        rgrp.add_argument("--r", type=float)
        rgrp.add_argument("--target-N", dest="target_n", type=float)
        sub.add_argument("--f", default="1")
    fi.add_argument("--phi", type=float, default=0.0)
    fi.add_argument("--alpha", type=float)
    fi.add_argument("--beta", type=float)
    fi.add_argument("--optimize", action="store_true")
    for sub in (gi, qf, fi):
        sub.add_argument("--csv", action="store_true")

    fg = subs.add_parser("figure", help="emit a sweep table")
    fg.add_argument("name", choices=("fig2", "fig3", "fig4", "fig5"))
    fg.add_argument("--output", metavar="PATH")
    fg.add_argument("--n-max", dest="n_max", type=int, default=figures.DEFAULT_N_MAX)
    fg.add_argument("--ntilde-max", dest="ntilde_max", type=float, default=10.0)
    fg.add_argument("--phi", type=float, default=0.0)
    fg.add_argument("--json", action="store_true")

    vf = subs.add_parser("verify", help="run randomized equivalence suites")
    vf.add_argument("suite", choices=("all",) + tuple(oracle.SUITES),
                    nargs="?", default="all")
    vf.add_argument("--cases", type=int, default=200)
    vf.add_argument("--seed", type=int, default=42)

    for sub in (gi, qf, fi, fg, vf):
        sub.add_argument("--save-manifest", dest="save_manifest", metavar="PATH")
    return parser


def _manifest_from_args(args):
    """{command, parameters}: every parameter the command's parser defines, in
    the parser's order."""
    params = {key: val for key, val in vars(args).items()
              if key not in ("manifest", "command", "save_manifest")}
    if getattr(args, "edges", None) is not None:
        # a replay from another working directory must find the same file
        params["edges"] = os.path.abspath(params["edges"])
    return {"command": args.command, "parameters": params}


def _validate_fi_angles(args, parser):
    if args.command != "fi":
        return
    has_angles = args.alpha is not None or args.beta is not None
    if args.optimize and has_angles:
        parser.error("--optimize and --alpha/--beta are mutually exclusive")
    if not args.optimize:
        if args.alpha is None or args.beta is None:
            parser.error("provide both --alpha and --beta, or --optimize")


def _replayed_args(parser, path):
    """Parse a manifest as the argv that records its parameters, read off the
    command's own subparser actions: the parser stays the only parameter list.

    A value must have the JSON type the parser produces: a bool for a flag, a
    str for an untyped argument, a number (a list of them for several values)
    for a typed one. null means the parser's default; other keys are rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load manifest: {exc}") from None
    # only these keys are read; older manifests also repeat output path and seed
    if not isinstance(doc, dict) or not isinstance(doc.get("parameters"), dict):
        raise ValueError("cannot load manifest: 'parameters' is not a JSON object")
    command, params = doc.get("command"), dict(doc["parameters"])
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    if not isinstance(command, str) or command not in commands:
        raise ValueError(f"unknown manifest command {json.dumps(command)}")
    sub, argv = commands[command], [command]
    number = (int, float)  # JSON numbers; a bool is not one
    for action in [a for a in sub._actions if a.dest not in ("help", "save_manifest")]:
        value = params.pop(action.dest, None)
        if value is None:
            continue
        if action.nargs == 0:
            kind, ok = "bool", isinstance(value, bool)
        elif action.type is None:
            kind, ok = "str", isinstance(value, str)
        elif isinstance(action.nargs, int):
            kind = f"a list of {action.nargs} numbers"
            ok = (isinstance(value, list) and len(value) == action.nargs
                  and all(type(v) in number for v in value))
        else:
            kind, ok = "a number", type(value) in number
        if not ok:
            raise ValueError(f"invalid manifest parameter: expected {kind} for "
                             f"{action.dest!r}, got {json.dumps(value)}")
        opt = action.option_strings[:1]
        if isinstance(value, list):
            argv += opt + [str(v) for v in value]
        elif isinstance(value, bool):
            argv += opt if value else []
        else:  # one token, so that a value such as "-1,2" stays a value
            argv.append(f"{opt[0]}={value}" if opt else value)
    if params:
        raise ValueError(f"invalid manifest parameter: {command} has no parameter "
                         f"{next(iter(params))!r}")
    parser.replaying = sub.replaying = True
    return parser.parse_args(argv)


def _run(manifest, save_path):
    """Save the manifest when asked, then run its command; bad input, an
    unreadable or unwritable file, overflow or exhausted memory exits 2.

    numpy's floating-point warnings are silenced: a non-finite result is
    reported by `render` in one line instead.
    """
    try:
        if save_path:
            with open(save_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(manifest, indent=2) + "\n")
        with np.errstate(all="ignore"):
            return RUNNERS[manifest["command"]](manifest["parameters"], sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OverflowError:
        print("error: the inputs overflow double precision", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.manifest:
            args = _replayed_args(parser, args.manifest)
        elif not args.command:
            parser.error("a subcommand or --manifest is required")
        _validate_fi_angles(args, parser)
    except ValueError as exc:  # only a replay's parser raises
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run(_manifest_from_args(args), args.save_manifest)


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
