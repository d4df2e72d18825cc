"""Quantum Fisher information of graph-state probes.

Two sensing modalities are covered. Phase sensing rotates each mode by
f_j * phi; displacement sensing shifts the state along a quadrature
combination with coefficients f (length 2n). Each QFI has a closed form for
graph states and an independent generic form on the entries of the
covariance S: 2 d^T (S o S) d - |f|^2 (phase, pure states) and 4 f^T S f
(displacement). The generic forms read a graph state's S through its q/p
blocks; the 2n x 2n matrix is read only from a state that was built on one.
The large-budget star and separable asymptotes are the benchmarks of acceptance criterion 5.
"""

import math

import numpy as np

from .gaussian import GaussianState, check_f, check_r, graph_state_covariance
from .graph import Graph


def qfi_phase_closed_form(g: Graph, r, f) -> float:
    """Closed-form phase QFI for a graph state with per-mode responsivities f.

    F = 2 sinh^2(2r) sum_j f_j^2
        + sum_jk (f_j^2 + e^{4r} f_j f_k) A_jk^2
        + (e^{4r}/2) sum_jk f_j f_k (A^2)_jk^2

    Both sums run over the u row classes of g (A = U[c], A^2 = G[c][:, c],
    see Graph) with w_c the sum of f over class c. A_jk^2 = A_jk turns the
    second into (f o f).deg + e^{4r} w.(U f) and the third is w^T (G o G) w,
    so the float arrays are u x n and u x u, not n x n.
    """
    r = check_r(r)
    f = check_f(f, g.n, "phase")
    e4r = np.exp(4.0 * r)
    w = np.bincount(g.classes, weights=f)
    term1 = 2.0 * s2 * float(f @ f) if (s2 := np.sinh(2.0 * r) ** 2) else 0.0  # not 0 * inf
    term2 = float(np.square(f) @ g.degrees()) + e4r * float(w @ (g.rows @ f))
    term3 = 0.5 * e4r * float(w @ np.square(g.gram) @ w)
    return term1 + term2 + term3


def qfi_phase_equal_f(g: Graph, r, f_scalar) -> float:
    """The closed form with every responsivity equal to f_scalar."""
    r, f = check_r(r), float(check_f([f_scalar], 1, "phase")[0])
    return qfi_phase_closed_form(g, r, np.full(g.n, f))


def phase_generator(f) -> np.ndarray:
    """Quadrature-space generator of the per-mode rotation, block order.

    The rotation q_j -> cos(f_j phi) q_j + sin(f_j phi) p_j,
    p_j -> -sin(f_j phi) q_j + cos(f_j phi) p_j has generator
    G = [[0, D], [-D, 0]] with D = diag(f).
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    d = np.diag(f)
    z = np.zeros((n, n))
    return np.block([[z, d], [-d, z]])


def qfi_phase_generic(state: GaussianState, f) -> float:
    """Phase QFI from the covariance matrix alone: F = 2 d^T (S o S) d - |f|^2.

    S o S is the elementwise square of the covariance and d = (f, f). This is
    Tr(G^2 - G S^-1 G S)/2 (G = phase_generator(f)) with S^-1 = -4 Omega S Omega,
    which holds only for pure states such as those of graph_state_covariance.
    It is evaluated in the form E = S - I/2 (diagonal: state.excess_diag, e),

        F = 2 d^T (E o E) d + 2 sum_a d_a^2 e_a = 2 d^T (E o E) d + 2 sum_j f_j^2 m_j,

    where the |f|^2 term cancels exactly and m_j = e_{q_j} + e_{p_j} is
    state.mode_excess, whose terms share one sign: as r -> 0 nothing cancels.
    On a graph state's blocks (h = e^{2r}/2), qp = pq = h A gives 2 h^2 f^T A f
    as A_jk^2 = A_jk; pp = h A^2 is squared on 256 rows of G[c] at a time, then expanded.
    """
    f = check_f(f, state.n, "phase")
    sq_f, e, n, g = np.square(f), state.excess_diag, state.n, state.graph
    if g is None:
        d, sq = np.concatenate((f, f)), np.square(state.cov)
        np.fill_diagonal(sq, np.square(e))
        return 2.0 * float(d @ (sq @ d)) + 2.0 * float(sq_f @ state.mode_excess)
    h, c, pp_f = 0.5 * np.exp(2.0 * state.r), g.classes, np.empty(n)
    for s in range(0, n, 256):
        block = np.square(h * g.gram.take(c[s:s + 256], axis=0)).take(c, axis=1)
        np.fill_diagonal(block[:, s:], 0.0)  # the diagonal of E o E is e^2
        pp_f[s:s + 256] = block @ f
    diag = float(sq_f @ np.square(e[:n])) + float(sq_f @ np.square(e[n:]))
    qp = 2.0 * h * h * float(f @ (g @ f))
    return 2.0 * ((diag + qp) + float(f @ pp_f)) + 2.0 * float(sq_f @ state.mode_excess)


def qfi_displacement(state: GaussianState, f) -> float:
    """Displacement QFI as the quadratic form 4 f^T S f (pure states); a graph
    state's S f is (h f_q + h A f_p, h A f_q + (h A^2 f_p + e^{-2r} f_p / 2)),
    h = e^{2r}/2, which keeps the e^{4r} eps loss along f_q = -A f_p."""
    f, g = check_f(f, state.n, "displacement"), state.graph
    if g is None:
        return 4.0 * float(f @ state.cov @ f)
    n, h = state.n, 0.5 * np.exp(2.0 * state.r)
    fq, fp, a_fp = f[:n], f[n:], g @ f[n:]
    s_f = np.concatenate((h * fq + h * a_fp, h * (g @ fq)
                          + (h * (g @ a_fp) + 0.5 * np.exp(-2.0 * state.r) * fp)))
    return 4.0 * float(f @ s_f)


def qfi_displacement_closed_form(g: Graph, r, f) -> float:
    """Closed form of the displacement QFI for a graph state, two squares:

    F = 2 e^{2r} |f_q + A f_p|^2 + 2 e^{-2r} |f_p|^2

    where f = (f_q, f_p) in block order and A f_p = g @ f_p (see Graph). It
    is 4 f^T S f with 2S = M M^T, and no term cancels, so along the squeezed
    nullifiers f_q = -A f_p it keeps its digits where 4 f^T S f loses e^{4r} eps.
    """
    r = check_r(r)
    f = check_f(f, g.n, "displacement")
    fq, fp = f[:g.n], f[g.n:]
    u = fq + g @ fp
    return 2.0 * np.exp(2.0 * r) * float(u @ u) + 2.0 * np.exp(-2.0 * r) * float(fp @ fp)


def qfi(g: Graph, r, f, modality) -> float:
    """Closed-form QFI of the graph state on g for the given sensing modality."""
    if modality == "phase":
        return qfi_phase_closed_form(g, r, f)
    if modality == "displacement":
        return qfi_displacement_closed_form(g, r, f)
    raise ValueError(f"unknown modality {modality!r}")


def cross_check(g: Graph, r, f, modality):
    """(closed form, covariance route) of the QFI: qfi() and the generic form
    on the blocks of graph_state_covariance(g, r) alone. `qfi` and `verify`
    compare the two with oracle.rel_error. Where max|f| < 1 both run on f / s,
    s the power of two that puts max|f / s| in [1, 2), and are scaled back by s
    twice (s^2 may underflow): a subnormal QFI keeps its digits, and no result
    that had no subnormal step changes a bit."""
    r, f = check_r(r), check_f(f, g.n, modality)
    s = math.ldexp(1.0, min(math.frexp(np.abs(f).max())[1] - 1, 0))
    f = f / s
    closed = qfi(g, r, f, modality)
    state = graph_state_covariance(g, r)
    cross = (qfi_phase_generic if modality == "phase" else qfi_displacement)(state, f)
    return closed * s * s, cross * s * s


def qfi_phase_star_asymptote(n, n_bar, f) -> float:
    """Large-budget phase benchmark for the star probe: (16/9) f^2 N^2."""
    if n < 2:
        raise ValueError("star asymptote needs n >= 2")
    return (16.0 / 9.0) * float(f) ** 2 * float(n_bar) ** 2


def qfi_phase_separable_asymptote(n, n_bar, f) -> float:
    """Large-budget phase benchmark for the separable probe: 8 f^2 N^2 / n."""
    if n < 1:
        raise ValueError("mode count must be positive")
    return 8.0 * float(f) ** 2 * float(n_bar) ** 2 / n


def qfi_displacement_star_asymptote(n, n_bar, f) -> float:
    """Large-budget displacement benchmark for the star probe: (8/3) f^2 n N."""
    if n < 2:
        raise ValueError("star asymptote needs n >= 2")
    return (8.0 / 3.0) * float(f) ** 2 * n * float(n_bar)
