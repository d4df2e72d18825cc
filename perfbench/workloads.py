"""The four workloads: their operations, inputs and output checks.

Why each workload exists is stated in BENCHMARK.json and README.md.

An operation is one CLI command as a user types it (argv for
`cvgraphsense.cli.main`) together with the check its output must pass. A
pass runs every operation of the workload once, always in the same order:
the order changes how the allocator reuses memory, and with it the peak
resident memory. The seed only draws the random edge lists and the fixed
angles of `largegraph`, at fixed sizes, so the cost of a pass does not
depend on it.
"""

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

import checks

SATURATION_N = (2, 7)
SATURATION_R = (1.0, 3.0)
MODALITIES = ("phase", "displacement")
SCALING_N_MAX = 2048
VERIFY_CASES = 200
# `verify all --seed 242` fails its photon suite on every run, so it is not
# in the list; see the benchmark README.
VERIFY_SEEDS = (42, 142, 342, 442, 542)
LARGE_R = 1.0


class Op(NamedTuple):
    argv: tuple
    check: Callable[[int, str], list]
    expect_fail: bool = False


def _ansatz(n, r, modality):
    """The program's two-angle FI on star(n) as a function of the angles."""
    from cvgraphsense import fi_star_ansatz, star_graph

    g = star_graph(n)
    f = np.ones(n if modality == "phase" else 2 * n)
    return lambda alpha, beta: fi_star_ansatz(g, r, f, 0.0, alpha, beta, modality)


def saturation(seed, workdir):
    return [Op(("fi", modality, "--star", str(n), "--r", f"{r:g}", "--optimize"),
               lambda rc, out, m=modality, n=n, r=r:
               checks.check_saturation(m, n, r, _ansatz(n, r, m), rc, out))
            for modality in MODALITIES for r in SATURATION_R for n in SATURATION_N]


def scaling(seed, workdir):
    return [Op(("figure", name, "--n-max", str(SCALING_N_MAX)),
               partial(checks.check_scaling, modality, SCALING_N_MAX))
            for name, modality in (("fig2", "phase"), ("fig4", "displacement"))]


def verify(seed, workdir):
    return [Op(("verify", "all", "--cases", str(VERIFY_CASES), "--seed", str(s)),
               partial(checks.check_verify, VERIFY_CASES))
            for s in VERIFY_SEEDS]


def _random_edges(rng, n, m):
    """m distinct edges on n vertices, 1-based, in the order first drawn."""
    found = {}
    while len(found) < m:
        for i, j in rng.integers(1, n + 1, size=(m, 2)).tolist():
            if i != j and len(found) < m:
                found.setdefault((min(i, j), max(i, j)), None)
    return np.array(sorted(found))


def _write_edges(path, n, edges):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# random graph, {len(edges)} edges\n{n}\n")
        fh.write("".join(f"{i} {j}\n" for i, j in edges))


def largegraph(seed, workdir):
    rng = np.random.default_rng(seed)
    r = f"{LARGE_R:g}"

    def qfi(modality, flag, values, adjacency, expect_fail=False):
        # adjacency() builds the benchmark's own matrix when the check runs
        return Op(("qfi", modality, flag, *map(str, values), "--r", r),
                  partial(checks.check_qfi, modality, adjacency, LARGE_R), expect_fail)

    def family(modality, name, *values, expect_fail=False):
        return qfi(modality, f"--{name}", values,
                   partial(getattr(checks, f"{name}_adjacency"), *values), expect_fail)

    ops = [
        # the generic Cholesky cross-check loses digits on dense graphs
        family("phase", "multipartite", 4, 64, expect_fail=True),
        family("phase", "multipartite", 4, 256, expect_fail=True),
        family("displacement", "multipartite", 4, 256),
        family("phase", "rectangular", 128),
        family("displacement", "rectangular", 512),
        family("phase", "star", 1024),
        family("displacement", "star", 2048),
    ]
    # random graphs of fixed size and edge count: 5% density at n = 512,
    # 1% at n = 2048
    for modality, n, m in (("phase", 512, 6540), ("displacement", 2048, 20961)):
        edges = _random_edges(rng, n, m)
        path = workdir / f"random-{modality}-{n}.edges"
        _write_edges(path, n, edges)
        ops.append(qfi(modality, "--edges", (path,), partial(checks.edges_adjacency, n, edges)))
    for modality, n in (("phase", 512), ("displacement", 1024)):
        alpha, beta = (round(float(v), 6) for v in rng.uniform(0.0, 2.0 * math.pi, 2))
        argv = ("fi", modality, "--star", str(n), "--r", r,
                "--alpha", f"{alpha:.6f}", "--beta", f"{beta:.6f}")
        ops.append(Op(argv, partial(checks.check_fixed_fi, modality, n, LARGE_R,
                                    alpha, beta)))
    return ops


WORKLOADS = {"saturation": saturation, "scaling": scaling, "verify": verify,
             "largegraph": largegraph}
