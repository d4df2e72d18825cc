"""Covariance matrices of CV graph states and their photon budget.

Quadratures are kept in block order (q_1..q_n, p_1..p_n) throughout, with the
vacuum normalized to cov = I/2. A graph state with uniform squeezing r on every
mode has

    cov = 1/2 [[U^-1,      U^-1 V          ],
               [V U^-1,    U + V U^-1 V    ]],   U = e^{-2r} I,  V = A,

so the q block is (e^{2r}/2) I, the q-p block (e^{2r}/2) A, and the state is
pure: det(2 cov) = 1.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, adjacency_squared, trace_power

# e^{4r} reaches ~2.4e17 at r = 10, the edge of double-precision safety for
# the trace-formula cross-checks; larger |r| is rejected.
R_CAP = 10.0


def check_r(r) -> float:
    """The squeeze parameter as a float: finite with |r| <= R_CAP."""
    r = float(r)
    if not abs(r) <= R_CAP:  # also rejects NaN
        raise ValueError(f"squeeze parameter must satisfy |r| <= {R_CAP}")
    return r


def check_f(f, n, modality) -> np.ndarray:
    """Responsivities as a float vector: n entries for phase sensing, 2n for
    displacement sensing, all finite and not all zero."""
    if modality not in ("phase", "displacement"):
        raise ValueError(f"unknown modality {modality!r}")
    length = n if modality == "phase" else 2 * n
    f = np.asarray(f, dtype=float)
    if f.shape != (length,):
        raise ValueError(f"f must have length {length}, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("f must be finite")
    if not f.any():
        raise ValueError("f must have at least one nonzero entry")
    return f


def check_finite(value, name) -> float:
    """A scalar input as a float that must be finite; `name` labels the message."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True, init=False)
class GaussianState:
    """Zero-mean Gaussian state: mode count, covariance S = `cov`, the diagonal of
    E = S - I/2 and its per-mode sums E_qq,jj + E_pp,jj, free of cancellation as r -> 0. A graph
    state (`graph`, `r` set) forms its dense 2n x 2n `cov` on first read; others hold it.
    dataclasses.replace(state, cov=M) keeps excess_diag and mode_excess, which the photon
    number and the generic phase QFI read: for M alone pass e = diag(M) - 1/2, e[:n] + e[n:]."""

    n: int
    cov: np.ndarray
    excess_diag: np.ndarray
    mode_excess: np.ndarray

    def __init__(self, n, cov, excess_diag, mode_excess, graph=None, r=None):
        vars(self).update(n=n, excess_diag=excess_diag, mode_excess=mode_excess, graph=graph, r=r)
        if graph is None:
            vars(self)["cov"] = cov  # shadows the lazy `cov` below

    @functools.cached_property
    def cov(self):  # a graph state's S, formed on first read
        a, eye, x = self.graph.adjacency, np.eye(self.n), np.exp(2.0 * self.r)
        pp = x * adjacency_squared(self.graph) + np.exp(-2.0 * self.r) * eye
        return 0.5 * np.block([[x * eye, x * a], [x * a, pp]])


def graph_state_covariance(g: Graph, r) -> GaussianState:
    """The graph state built on g with squeezing r (see GaussianState)."""
    r = check_r(r)
    n, x = g.n, np.exp(2.0 * r)
    # cov - I/2 on the diagonal: (e^{2r} - 1)/2 on q, (e^{-2r} - 1 + e^{2r} deg)/2
    # on p, with expm1 so that nothing cancels as r -> 0
    excess_q, x_deg = 0.5 * np.expm1(2.0 * r), x * g.degrees()
    excess = np.empty(2 * n)
    excess[:n] = excess_q
    excess[n:] = 0.5 * (np.expm1(-2.0 * r) + x_deg)
    # and their per-mode sums as (x - 1)^2 / (2x) + x deg / 2, where the halves would cancel
    mode_excess = 2.0 * excess_q * excess_q / x + 0.5 * x_deg
    return GaussianState(n, None, excess, mode_excess, graph=g, r=r)


def _photon_number(n, t2, r):
    """n sinh^2 r + (e^{2r}/4) T2 for n modes with T2 = Tr(A^2)."""
    return n * np.sinh(r) ** 2 + 0.25 * np.exp(2.0 * r) * t2


def mean_photon_number(g: Graph, r) -> float:
    """Total mean photon number: n sinh^2 r + (e^{2r}/4) Tr(A^2)."""
    return _photon_number(g.n, trace_power(g, 2), check_r(r))


def photon_number_from_covariance(state: GaussianState) -> float:
    """Photon number via the covariance trace: Tr(cov - I/2)/2.

    Sums the state's per-mode excess E_qq,jj + E_pp,jj rather than
    Tr(cov)/2 - n/2, which loses digits as r -> 0, or the excess diagonal,
    whose q and p halves cancel in the sum; agrees with mean_photon_number
    for graph states to ~1e-16 relative at any r.
    """
    return 0.5 * float(np.sum(state.mode_excess))


def squeeze_for_photon_budget(g: Graph, target_n) -> float:
    """Invert the photon budget: find r >= 0 with mean photon number target_n.

    With x = e^{2r}, N(r) = n sinh^2 r + x T2/4 (T2 = Tr A^2) turns into a
    quadratic in y = x - 1,

        (n + T2) y^2 + (2 T2 - 4N) y - (4N - T2) = 0,

    whose positive root is taken in closed form, in whichever form of the
    quadratic formula adds terms of one sign, and r = log1p(y)/2. Targets
    outside the reachable range raise with the range in the message.
    """
    target_n = check_finite(target_n, "target photon number")
    if target_n <= 0:
        raise ValueError("target photon number must be positive")
    n = g.n
    t2 = trace_power(g, 2)
    lo = _photon_number(n, t2, 0.0)
    hi = _photon_number(n, t2, R_CAP)
    tol = 1e-10 * target_n
    if target_n < lo - tol:
        raise ValueError(
            f"target photon number {target_n:g} unreachable for {g.label}: "
            f"reachable range is [{lo:.6g}, {hi:.6g}]"
        )
    if target_n > hi + tol:
        raise ValueError(
            f"target photon number {target_n:g} unreachable for {g.label}: "
            f"maximum reachable is {hi:.6g} at r = {R_CAP:g}"
        )
    if abs(target_n - lo) <= tol:
        return 0.0
    if abs(target_n - hi) <= tol:
        return R_CAP
    # past the endpoint checks 4N > T2, so the discriminant
    # 4 (4N^2 + n (4N - T2)) is a sum of positive terms
    excess = 4.0 * target_n - t2
    sqrt_disc = 2.0 * np.sqrt(4.0 * target_n ** 2 + n * excess)
    lin = 4.0 * target_n - 2.0 * t2
    if lin >= 0:
        y = (lin + sqrt_disc) / (2.0 * (n + t2))
    else:
        y = 2.0 * excess / (sqrt_disc - lin)
    r = 0.5 * np.log1p(y)
    if abs(_photon_number(n, t2, r) - target_n) > tol:
        raise RuntimeError("photon-budget inversion missed its target")
    return float(r)
