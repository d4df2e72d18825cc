"""Classical Fisher information of per-mode homodyne detection.

Measuring quadrature m_j = sin(theta_j) q_j + cos(theta_j) p_j on every mode
of a graph state yields jointly Gaussian outcomes; the Fisher information
about the sensing parameter follows from the outcome mean omega and
covariance sigma_M,

    I = Tr[(d sigma_M sigma_M^-1)^2] / 2 + d omega^T sigma_M^-1 d omega.

For phase sensing omega vanishes identically and sigma_M carries all the
information; for displacement sensing sigma_M is parameter-independent and
the mean carries it all. Displacement sensing has closed-form per-mode angles
that reach the QFI on every graph (`saturate_displacement`); phase-sensing
angles come from a certified Newton ascent under the star-graph ansatz
theta = (alpha, beta, beta, ...).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import check_f, check_finite, check_r
from .graph import Graph

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps
# angle settings per `_moments` call of the grouped route
BLOCK = 64
# `optimize_angles`: grid points per angle on [0, pi), complex step, flat
# curvature ratio, steps per start and per leader, decrement and FI-tie bounds
GRID, COMPLEX_STEP, FLAT = 32, 1e-20, 1e-7
ITERATIONS, LEADER_ITERATIONS = 20, 100
DECREMENT_TOL, TIE_TOL = 1e-11, 1e-12
# `_newton_terms`: offsets of (a +/- d, b), (a, b +/- d) twice, complex steps in a, a, b
SHIFTS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [0, 1], [0, -1]])[:, None]
PROBES = 1j * COMPLEX_STEP * np.eye(2)[[0, 0, 0, 0, 1, 1], None]


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call. Nothing calls it: it
    stays because the benchmark's tracer looks `homodyne.minimize` up."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class HomodyneSetting:
    """Local-oscillator phases, one per mode, reduced to [0, 2*pi)."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if t.ndim != 1:
            raise ValueError("theta must be a vector")
        if not np.isfinite(t).all():
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", np.mod(t, TWO_PI))


@dataclass(frozen=True)
class MeasurementMoments:
    """Outcome mean/covariance and their parameter derivatives; sigma_root, when
    given, has sigma_m = sigma_root^T sigma_root and the FI factors it instead."""

    omega: np.ndarray
    sigma_m: np.ndarray
    d_omega: np.ndarray
    d_sigma: np.ndarray
    sigma_root: np.ndarray | None = None


def diag_trig_matrices(f, phi, theta):
    """Diagonal matrices (G1, F1, G2, F2) with cos/sin of f*phi and theta."""
    f, theta = np.asarray(f, dtype=float), np.asarray(theta, dtype=float)
    if f.shape != theta.shape:
        raise ValueError("f and theta must have matching length")
    return tuple(np.diag(trig(v)) for v in (f * phi, theta) for trig in (np.cos, np.sin))


def _moments(a, r, f, phi, theta, modality):
    """Outcome moments of k angle settings at once on A = a: theta has shape (k, n).

    With x = e^{2r}, p = sin(psi), q = cos(psi), psi = theta - f phi for
    phase sensing and psi = theta for displacement sensing,

        sigma_M = x L L^T / 2 + diag(q)^2 / (2x) = B B^T,
        L = diag(p) + diag(q) A,   B = [sqrt(x/2) L, diag(q) / sqrt(2x)].

    Returns (B^T, d sigma_M, d omega) stacked over the k rows, in theta's
    dtype (complex theta carries a complex step); `_fisher` factors B^T and
    forms no sigma_M. Phase sensing: d sigma_M by the product rule with
    dp = -f q, dq = f p, d omega None. Displacement: d sigma_M None, d omega = p f_p - q f_q.
    """
    n = len(a)
    x = math.exp(2.0 * r)
    psi = theta - f * phi if modality == "phase" else theta
    p, q = np.sin(psi), np.cos(psi)
    idx = np.arange(n)
    lmat = q[:, :, None] * a
    lmat[:, idx, idx] += p
    root = np.zeros((theta.shape[0], 2 * n, n), dtype=psi.dtype)
    root[:, :n] = math.sqrt(0.5 * x) * lmat.swapaxes(1, 2)
    root[:, n + idx, idx] = q / math.sqrt(2.0 * x)
    if modality != "phase":
        return root, None, p * f[n:] - q * f[:n]
    dp, dq = -f * q, f * p
    k = dq[:, :, None] * a
    k[:, idx, idx] += dp
    k = k @ lmat.swapaxes(1, 2)
    d_sigma = 0.5 * x * (k + k.swapaxes(1, 2))
    d_sigma[:, idx, idx] += q * dq / x
    return root, d_sigma, None


def _moments_view(g: Graph, r, f, phi, setting, modality):
    """Validate one moments query and return its `_moments` as MeasurementMoments."""
    r, f, phi = check_r(r), check_f(f, g.n, modality), check_finite(phi, "phi")
    if setting.theta.shape != (g.n,):
        raise ValueError(f"theta must have length {g.n}")
    (root,), d_sigma, d_omega = _moments(g.rows.take(g.classes, axis=0), r, f, phi,
                                         setting.theta[None], modality)
    sigma = root.T @ root
    if modality == "phase":
        return MeasurementMoments(omega=np.zeros(g.n), sigma_m=sigma, d_omega=np.zeros(g.n),
                                  d_sigma=d_sigma[0], sigma_root=root)
    return MeasurementMoments(omega=phi * d_omega[0], sigma_m=sigma, d_omega=d_omega[0],
                              d_sigma=np.zeros((g.n, g.n)), sigma_root=root)


def phase_measurement_moments(g: Graph, r, f, phi, setting: HomodyneSetting) -> MeasurementMoments:
    """Homodyne outcome moments under phase sensing (one setting of `_moments`):
    omega = 0, and sigma_M and d sigma_M / d phi depend on theta - f phi."""
    return _moments_view(g, r, f, phi, setting, "phase")


def displacement_measurement_moments(g: Graph, r, f, phi, setting: HomodyneSetting) -> MeasurementMoments:
    """Homodyne outcome moments under displacement sensing (one setting of
    `_moments`): omega_i = phi (sin(theta_i) f_{n+i} - cos(theta_i) f_i), d_sigma = 0."""
    return _moments_view(g, r, f, phi, setting, "displacement")


def _fisher(root, d_sigma=None, d_omega=None):
    """Gaussian FI of k stacked outcome models; a derivative given as None is zero.

    sigma_M = root^T root. With C = R^T from the QR factorization of root,
    sigma_M = C C^T without the squared condition number of a Cholesky
    factorization of sigma_M, and with W = C^-1 d sigma_M C^-T (one C^-1),
    I = |W|_F^2 / 2 + |C^-1 d omega|^2: the trace form as a sum of squares.
    Complex phase moments from angles theta + i t v carry t times their
    v-derivatives as imaginary parts, and the result is the complex step
    I + i t dI/dv: t dI/dv = tr(W Y) - tr(X W^2) with X and Y the whitened
    imaginary parts of sigma_M (Re(root)^T Im(root) plus its transpose) and d sigma_M.
    """
    try:
        ci = np.linalg.inv(np.linalg.qr(root.real, mode="r").swapaxes(1, 2))
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma_M is singular; perturb the angles") from exc
    fi = np.zeros(ci.shape[0])
    if d_sigma is not None:
        w = ci @ d_sigma.real @ ci.swapaxes(1, 2)
        fi += 0.5 * np.einsum("kij,kij->k", w, w)
        if np.iscomplexobj(d_sigma):
            v = w @ ci  # tr(W Y) = <C^-T V, Im d sigma_M>, tr(X W^2) = <V^T V, Im sigma_M>
            cross = root.real.swapaxes(1, 2) @ root.imag
            fi = fi + 1j * (np.einsum("kij,kij->k", ci.swapaxes(1, 2) @ v, d_sigma.imag)
                            - np.einsum("kij,kij->k", v.swapaxes(1, 2) @ v,
                                        cross + cross.swapaxes(1, 2)))
    if d_omega is not None:
        z = ci @ d_omega[:, :, None]
        fi += np.einsum("kij,kij->k", z, z)
    return fi


def gaussian_fisher_information(m: MeasurementMoments) -> float:
    """Fisher information of a Gaussian outcome model from its moments."""
    root = m.sigma_root
    if root is None:
        try:
            root = np.linalg.cholesky(m.sigma_m).T
        except np.linalg.LinAlgError as exc:
            raise ValueError("sigma_M is not positive definite; perturb the angles") from exc
    d_sigma = m.d_sigma[None] if np.any(m.d_sigma) else None
    d_omega = m.d_omega[None] if np.any(m.d_omega) else None
    return float(_fisher(root[None], d_sigma, d_omega)[0])


def _grouped_fi_function(g: Graph, r, f, phi, slots, modality):
    """FI of the settings whose angle is constant on slots: slots[j] numbers the
    angle of vertex j, and fi(angles) takes angles[..., s] for slot s.

    Vertices of one row class, responsivities and slot form a group (size nu)
    and see identical moments: on the group's uniform vector `_moments` on the
    k x k quotient nu^(1/2) A[reps, reps] nu^(1/2) with displacement f scaled
    by nu^(1/2), on its nu - 1 complement the diagonal a = (x p^2 + q^2/x) / 2,
    da = -(x - 1/x) p q f, adding sum (nu - 1) (da / a)^2 / 2 to the phase FI
    (not to displacement). BLOCK settings per `_moments` call; complex angles
    give `_fisher`'s complex step.
    """
    n = g.n
    f_cols = f.reshape(-1, n).T
    _, reps, nu = np.unique(np.column_stack([g.classes, slots, f_cols]), axis=0,
                            return_index=True, return_counts=True)
    scale = np.sqrt(nu)
    quotient = g.rows[np.ix_(g.classes[reps], reps)] * np.outer(scale, scale)
    fk = f_cols[reps].T.ravel() if modality == "phase" else (f_cols[reps].T * scale).ravel()
    slot, twins = slots[reps], nu - 1.0
    x, gap = math.exp(2.0 * r), 4.0 * math.sinh(2.0 * r)  # gap = 2 (x - 1/x)

    def block_fi(theta):
        fi = _fisher(*_moments(quotient, r, fk, phi, theta, modality))
        if modality == "phase":
            psi = theta - fk * phi
            p, q = np.sin(psi), np.cos(psi)
            ratio = gap * p * q * fk / (x * p * p + q * q / x)  # -da / a
            fi = fi + 0.5 * (ratio * ratio) @ twins
        return fi

    def fi(angles):
        theta = angles.reshape(-1, angles.shape[-1])[:, slot]
        return np.concatenate([block_fi(theta[k:k + BLOCK])
                               for k in range(0, len(theta), BLOCK)]).reshape(angles.shape[:-1])

    return fi


def _ansatz(g: Graph, r, f, phi, modality):
    """Validate a two-angle star query (star, then r, then f, then phi); returns
    (r, f, phi, fi) with fi(angles[..., 2] = (alpha, beta)): on the phase sector
    when the leaves share one responsivity, else on the grouped route. A star
    has every edge at its hub; a lone mode has no leaves."""
    if not g.degrees()[0] == g.edge_count == g.n - 1:
        raise ValueError("angle ansatz requires a star graph with hub at vertex 1")
    r, f, phi = check_r(r), check_f(f, g.n, modality), check_finite(phi, "phi")
    sector = _sector_fi_function(g.n, r, f, phi) if modality == "phase" else None
    return r, f, phi, sector or _grouped_fi_function(g, r, f, phi, np.arange(g.n).clip(max=1),
                                                     modality)


def _sector_fi_function(n, r, f, phi):
    """Two-angle star phase FI on the symmetric sector, for leaves of one responsivity.

    The ansatz gives sigma_M and d sigma_M the form hub + (a I + b J) on the
    m = n - 1 leaves, so both are block diagonal in the basis (hub,
    symmetric leaf mode, m - 1 antisymmetric leaf modes): a 2x2 sector
    S2 = [[h, s12], [s12, s22]] and the (m - 1)-fold eigenvalue a. With
    x = e^{2r}, p = sin(psi), q = cos(psi), psi = theta - f phi,
    h = x q_H^2 m / 2 + (x p_H^2 + q_H^2 / x) / 2,
    s12 = x sqrt(m) (q_H p_L + p_H q_L) / 2 and a = (x p_L^2 + q_L^2 / x) / 2.
    As `_fisher` whitens by QR, S2 is whitened by its Cholesky factor
    [[1, 0], [t, 1]] diag(sqrt(h), sqrt(det / h)), t = s12 / h, into squares:

        FI = (dh / h)^2 / 2 + w12^2 / det + (h w22 / det)^2 / 2 + (m - 1) (da / a)^2 / 2,

    with w12 = d12 - t dh, w22 = d22 - t (d12 + w12) from dS2. det S2 is a
    sum of non-negative terms (sigma_M = x L L^T / 2 + diag(q)^2 / (2x)) and
    is evaluated that way. Returns fi(angles) on angles[..., 2] = (alpha, beta),
    or None when the leaves' responsivities differ; fi is holomorphic, so
    complex angles give a complex step.
    """
    if np.any(f[1:] != f[-1]):
        return None
    f_h, f_l = float(f[0]), float(f[-1])
    m = n - 1
    rm, x = math.sqrt(m), math.exp(2.0 * r)

    def fi(angles):
        alpha, beta = angles[..., 0], angles[..., 1]
        ph, qh = np.sin(alpha - f_h * phi), np.cos(alpha - f_h * phi)
        pl, ql = np.sin(beta - f_l * phi), np.cos(beta - f_l * phi)
        h = 0.5 * (x * (m * qh * qh + ph * ph) + qh * qh / x)
        dph, dqh = -f_h * qh, f_h * ph
        dh = x * (m * qh * dqh + ph * dph) + qh * dqh / x
        if m == 0:
            return 0.5 * (dh / h) ** 2
        t = 0.5 * rm * x * (qh * pl + ph * ql) / h
        lin = ph * pl - m * qh * ql
        det = (0.25 * x * x * lin * lin
               + 0.25 * (qh * qh * pl * pl + ql * ql * ph * ph + 2.0 * m * qh * qh * ql * ql)
               + 0.25 * qh * qh * ql * ql / (x * x))
        dpl, dql = -f_l * ql, f_l * pl
        d12 = 0.5 * rm * x * (dqh * pl + qh * dpl + dph * ql + ph * dql)
        da = x * pl * dpl + ql * dql / x
        d22 = da + m * x * ql * dql
        w12 = d12 - t * dh
        w22 = d22 - t * (d12 + w12)
        a = 0.5 * (x * pl * pl + ql * ql / x)
        return (0.5 * (dh / h) ** 2 + w12 * w12 / det + 0.5 * (h * w22 / det) ** 2
                + 0.5 * (m - 1) * (da / a) ** 2)

    return fi


def fi_star_ansatz(g: Graph, r, f, phi, alpha, beta, modality) -> float:
    """FI of the two-angle star setting: alpha on the hub, beta on the leaves
    (on the O(1) phase sector for leaves of one responsivity, else grouped)."""
    *_, fi = _ansatz(g, r, f, phi, modality)
    return float(fi(np.array([check_finite(alpha, "alpha"), check_finite(beta, "beta")])))


def saturate_displacement(g: Graph, r, f):
    """Per-mode homodyne angles that reach the displacement QFI on any graph.

    Returns (theta, fi): one angle per mode in [0, pi) and the FI there. The
    mean derivative is delta = (f_p, -f_q) in (q, p) order and the QFI is
    delta^T S^-1 delta; measuring mode j at theta_j = atan2(v_qj, v_pj) with
    v = S^-1 delta makes the measured quadratures span v, so FI = QFI. Purity
    gives v = 4 Omega S f with f = (f_q, f_p), and S f = (x/2) (u, w) for
    x = e^{2r}, u = f_q + A f_p, w = A u + e^{-4r} f_p: theta = atan2(w, -u)
    mod pi from two products (U x)[c] = A x (theta_j = 0 where u_j = w_j = 0).
    The FI is evaluated at theta on the grouped route, one slot per distinct
    angle (twins with equal responsivities share one).
    """
    r, f = check_r(r), check_f(f, g.n, "displacement")
    n = g.n
    fq, fp = f[:n], f[n:]
    u = fq + (g.rows @ fp)[g.classes]
    w = (g.rows @ u)[g.classes] + math.exp(-4.0 * r) * fp
    theta = np.mod(np.arctan2(w, -u), np.pi)
    theta[theta == np.pi] = 0.0  # a tiny negative angle rounds up to pi
    angles, slots = np.unique(theta, return_inverse=True)
    return theta, float(_grouped_fi_function(g, r, f, 0.0, slots, "displacement")(angles))


def _newton_terms(fi, x, width):
    """Gradient and Hessian of fi at the angle pairs x[:, 2] = (a, b): exact
    complex-step gradients at (a -/+ d, b) and (a, b -/+ d), d = eps^(1/3) times
    the ridge width e^{-2|r|}, whose central differences and means give both
    to O(d^2) ~ 4e-11 relative."""
    pts = x + np.cbrt(EPS) * width * SHIFTS
    g = fi(pts + PROBES).imag / COMPLEX_STEP
    span_a, span_b = pts[0, :, 0] - pts[1, :, 0], pts[2, :, 1] - pts[3, :, 1]
    hab = (g[2] - g[3]) / span_b
    hess = np.stack([(g[0] - g[1]) / span_a, hab, hab, (g[4] - g[5]) / span_b], 1)
    return 0.5 * np.stack([g[2] + g[3], g[4] + g[5]], 1), hess.reshape(-1, 2, 2)


def _newton_step(val, grad, hess):
    """Newton step, relative Newton decrement g^T (-H)^+ g / (2 FI) and concavity
    per start, in Jacobi-scaled coordinates where -H has eigenvalues lam. A
    direction with |lam| <= FLAT max|lam| is flat (the ridge of n = 2): the
    decrement skips it, concavity allows it, the step divides by that floor."""
    diag = np.abs(np.diagonal(hess, axis1=1, axis2=2))
    scale = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    lam, vec = np.linalg.eigh(-hess * scale[:, :, None] * scale[:, None, :])
    floor = FLAT * np.abs(lam).max(axis=1, keepdims=True)
    proj = np.einsum("kji,kj->ki", vec, grad * scale)
    curved = lam > floor
    gain = np.sum(np.where(curved, proj * proj / np.where(curved, lam, 1.0), 0.0), axis=1)
    dec = np.divide(gain, 2.0 * val, out=np.where(gain > 0, np.inf, 0.0), where=val > 0)
    curv = np.maximum(np.abs(lam), floor)
    step = np.divide(proj, curv, out=np.zeros_like(proj), where=curv > 0)
    return scale * np.einsum("kij,kj->ki", vec, step), dec, lam[:, 0] >= -floor[:, 0]


def optimize_angles(g: Graph, r, f, phi):
    """Maximize the two-angle star FI of phase sensing; returns (alpha, beta, fi_value).

    The FI has period pi in each angle, so the 64 x 64 grid on [0, 2*pi)^2 is
    evaluated on its quarter [0, pi)^2. Each grid point >= its 8 torus
    neighbours, and 36 squeezing-aware starts around the quadrature axes (at
    large r the optimum is on a ridge of width ~e^{-2r}), starts one damped
    Newton ascent, vectorized over the starts. A step is capped at a grid
    spacing and halved until it raises the FI, unless the start is certified:
    concave with a relative decrement at most DECREMENT_TOL = 1e-11, whose
    predicted gain the FI cannot resolve (winners measured over the fig3 rows
    and 400 random stars stay below 1e-15). A start stops when its decrement
    or step falls below eps, after ITERATIONS steps, or LEADER_ITERATIONS if
    it ties the best FI. Among certified starts tying the best FI within
    1e-12, the winner has the smallest (beta, alpha) mod pi; its angles come
    in [0, pi) with the FI there. An uncertified winner emits one
    RuntimeWarning naming its decrement, the threshold and its start.
    """
    r, f, phi, fi = _ansatz(g, r, f, phi, "phase")
    spacing = np.pi / GRID
    grid = np.stack(np.meshgrid(*[spacing * np.arange(GRID)] * 2, indexing="ij"), -1)
    vals = fi(grid)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("the FI overflows double precision")
    peak = np.all([vals >= np.roll(vals, (i, j), axis=(0, 1))
                   for i in (-1, 0, 1) for j in (-1, 0, 1)], axis=0)
    # axis starts offset by the squeezing scale, shifted like the landscape by f*phi
    width = math.exp(-2.0 * abs(r))
    axis = (np.array([0.0, 0.5 * np.pi])[:, None] + np.array([-width, 0.0, width])).ravel()
    axes = np.meshgrid(axis + f[0] * phi, axis + np.mean(f[1:] if g.n > 1 else f) * phi,
                       indexing="ij")
    x0 = np.concatenate([grid[peak], np.stack(axes, -1).reshape(-1, 2)])
    x, val = x0.copy(), fi(x0)
    grad, hess = _newton_terms(fi, x, width)
    damp, live = np.ones(len(x)), np.ones(len(x), dtype=bool)
    for it in range(LEADER_ITERATIONS + 1):
        step, dec, concave = _newton_step(val, grad, hess)
        norm = np.hypot(step[:, 0], step[:, 1])
        step *= (damp * np.minimum(1.0, spacing / np.where(norm > 0, norm, 1.0)))[:, None]
        certified = concave & (dec <= DECREMENT_TOL)
        live &= ~(concave & (dec <= EPS)) & (damp * np.minimum(norm, spacing) > EPS)
        if it >= ITERATIONS:  # the tie-break chooses among these
            live &= val >= val.max() * (1.0 - TIE_TOL)
        if it == LEADER_ITERATIONS or not live.any():
            break
        k = np.flatnonzero(live)
        v = fi(x[k] + step[k])
        ok = (v > val[k]) | certified[k]
        damp[k[~ok]] *= 0.5
        up = k[ok]
        x[up], val[up], damp[up] = x[up] + step[up], v[ok], 1.0
        if up.size:
            grad[up], hess[up] = _newton_terms(fi, x[up], width)
    x = np.mod(x, np.pi)
    tied = np.flatnonzero(certified & (val >= val.max() * (1.0 - TIE_TOL)))
    w = tied[np.lexsort(x[tied].T)[0]] if tied.size else int(np.argmax(val))
    if not certified[w]:
        warnings.warn(f"angle ascent not certified: relative Newton decrement {dec[w]:.3g} "
                      f"(threshold {DECREMENT_TOL:g}), concave {bool(concave[w])}, "
                      f"from start ({x0[w, 0]:.6g}, {x0[w, 1]:.6g})", RuntimeWarning, stacklevel=2)
    return float(x[w, 0]), float(x[w, 1]), float(fi(x[w]))


def fi_monte_carlo(m: MeasurementMoments, sample_count, seed):
    """Empirical FI from simulated homodyne records.

    Draws outcomes from N(omega, sigma_M), evaluates the analytic score
    d/dphi log p on each sample, and returns (mean of score^2, standard
    error). Consistent for the Fisher information of the model.
    """
    sample_count = int(sample_count)
    if sample_count < 10_000:
        raise ValueError("sample_count must be at least 10000")
    try:
        c = np.linalg.cholesky(m.sigma_m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma_M is not positive definite") from exc

    def solve(b):
        return np.linalg.solve(c.T, np.linalg.solve(c, b))

    rng = np.random.default_rng(seed)
    xs = rng.multivariate_normal(m.omega, m.sigma_m, size=sample_count,
                                 method="cholesky")
    z = solve((xs - m.omega).T).T

    scores = np.zeros(sample_count)
    if np.any(m.d_omega):
        scores += z @ m.d_omega
    if np.any(m.d_sigma):
        scores += 0.5 * np.einsum("ni,ij,nj->n", z, m.d_sigma, z)
        scores -= 0.5 * float(np.trace(solve(m.d_sigma)))

    sq = scores**2
    estimate = float(np.mean(sq))
    std_error = float(np.std(sq, ddof=1) / np.sqrt(sample_count))
    return estimate, std_error
