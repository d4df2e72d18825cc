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
angles are optimized numerically under the star-graph ansatz
theta = (alpha, beta, beta, ...).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import check_f, check_finite, check_r
from .graph import Graph

TWO_PI = 2.0 * np.pi
# angle pairs per dense moments evaluation in the optimizer's prescreen
BLOCK = 64


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call so that only the angle
    optimizer loads scipy."""
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
        t = np.mod(t, TWO_PI)
        object.__setattr__(self, "theta", t)


@dataclass(frozen=True)
class MeasurementMoments:
    """Outcome mean/covariance and their parameter derivatives.

    sigma_root, when given, is a matrix with sigma_m = sigma_root^T sigma_root
    that the FI factors instead of sigma_m itself.
    """

    omega: np.ndarray
    sigma_m: np.ndarray
    d_omega: np.ndarray
    d_sigma: np.ndarray
    sigma_root: np.ndarray | None = None


def diag_trig_matrices(f, phi, theta):
    """Diagonal matrices (G1, F1, G2, F2) with cos/sin of f*phi and theta."""
    f = np.asarray(f, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if f.shape != theta.shape:
        raise ValueError("f and theta must have matching length")
    g1 = np.diag(np.cos(f * phi))
    f1 = np.diag(np.sin(f * phi))
    g2 = np.diag(np.cos(theta))
    f2 = np.diag(np.sin(theta))
    return g1, f1, g2, f2


def _moments(g: Graph, r, f, phi, theta, modality):
    """Outcome moments of k angle settings at once: theta has shape (k, n).

    With x = e^{2r}, p = sin(psi), q = cos(psi), psi = theta - f phi for
    phase sensing and psi = theta for displacement sensing,

        sigma_M = x L L^T / 2 + diag(q)^2 / (2x) = B B^T,
        L = diag(p) + diag(q) A,   B = [sqrt(x/2) L, diag(q) / sqrt(2x)].

    Returns (sigma_M, B^T, d sigma_M, d omega) stacked over the k rows; B^T is
    the square root that `_fisher` factors. Under phase sensing omega vanishes
    and d sigma_M follows from the product rule with dp = -f q, dq = f p
    (d omega is None); under displacement sensing sigma_M does not depend on
    phi (d sigma_M is None) and d omega = p f_p - q f_q.
    """
    n = g.n
    x = math.exp(2.0 * r)
    a = g.adjacency.astype(float)
    eye = np.eye(n)
    psi = theta - f * phi if modality == "phase" else theta
    p, q = np.sin(psi), np.cos(psi)
    lmat = p[:, :, None] * eye + q[:, :, None] * a
    idx = np.arange(n)
    sigma = 0.5 * x * (lmat @ lmat.swapaxes(1, 2))
    sigma[:, idx, idx] += 0.5 * q * q / x
    root = np.zeros((theta.shape[0], 2 * n, n))
    root[:, :n] = math.sqrt(0.5 * x) * lmat.swapaxes(1, 2)
    root[:, n + idx, idx] = q / math.sqrt(2.0 * x)
    if modality != "phase":
        return sigma, root, None, p * f[n:] - q * f[:n]
    dp, dq = -f * q, f * p
    k = (dp[:, :, None] * eye + dq[:, :, None] * a) @ lmat.swapaxes(1, 2)
    d_sigma = 0.5 * x * (k + k.swapaxes(1, 2))
    d_sigma[:, idx, idx] += q * dq / x
    return sigma, root, d_sigma, None


def _moments_view(g: Graph, r, f, phi, setting, modality):
    """Validate one moments query and return its `_moments` as MeasurementMoments."""
    r, f, phi = check_r(r), check_f(f, g.n, modality), check_finite(phi, "phi")
    if setting.theta.shape != (g.n,):
        raise ValueError(f"theta must have length {g.n}")
    sigma, root, d_sigma, d_omega = _moments(g, r, f, phi, setting.theta[None], modality)
    if modality == "phase":
        return MeasurementMoments(omega=np.zeros(g.n), sigma_m=sigma[0], d_omega=np.zeros(g.n),
                                  d_sigma=d_sigma[0], sigma_root=root[0])
    return MeasurementMoments(omega=phi * d_omega[0], sigma_m=sigma[0], d_omega=d_omega[0],
                              d_sigma=np.zeros((g.n, g.n)), sigma_root=root[0])


def phase_measurement_moments(g: Graph, r, f, phi, setting: HomodyneSetting) -> MeasurementMoments:
    """Moments of homodyne outcomes under phase sensing (one setting of `_moments`).

    omega = 0; sigma_M and its analytic derivative d sigma_M / d phi depend
    on the angles only through theta - f phi.
    """
    return _moments_view(g, r, f, phi, setting, "phase")


def displacement_measurement_moments(g: Graph, r, f, phi, setting: HomodyneSetting) -> MeasurementMoments:
    """Moments of homodyne outcomes under displacement sensing (one setting of `_moments`).

    omega_i = phi (sin(theta_i) f_{n+i} - cos(theta_i) f_i); sigma_M is the
    phi-independent covariance of the measured quadratures, so d_sigma = 0.
    """
    return _moments_view(g, r, f, phi, setting, "displacement")


def _fisher(root, d_sigma=None, d_omega=None):
    """Gaussian FI of k stacked outcome models; a derivative given as None is zero.

    sigma_M = root^T root. With C = R^T from the QR factorization of root,
    sigma_M = C C^T without the squared condition number of a Cholesky
    factorization of sigma_M, and I = |C^-1 d sigma_M C^-T|_F^2 / 2 +
    |C^-1 d omega|^2: the trace form as a sum of squares.
    """
    c = np.linalg.qr(root, mode="r").swapaxes(1, 2)
    fi = np.zeros(c.shape[0])
    try:
        if d_sigma is not None:
            w = np.linalg.solve(c, d_sigma)
            w = np.linalg.solve(c, w.swapaxes(1, 2))
            fi += 0.5 * np.einsum("kij,kij->k", w, w)
        if d_omega is not None:
            z = np.linalg.solve(c, d_omega[:, :, None])
            fi += np.einsum("kij,kij->k", z, z)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma_M is singular; perturb the angles") from exc
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


def _is_star(g: Graph):
    """True for a star with hub at vertex 1; a lone mode is a star without leaves."""
    a = g.adjacency
    return bool(np.all(a[0, 1:] == 1) and not np.any(a[1:, 1:]))


def _ansatz(g: Graph, r, f, phi, modality):
    """Validate a two-angle star query (star, then r, then f, then phi); returns
    (r, f, phi, fi) with fi(alpha, beta) on the sector route when the leaves
    share one responsivity, else on the dense route."""
    if not _is_star(g):
        raise ValueError("angle ansatz requires a star graph with hub at vertex 1")
    r, f, phi = check_r(r), check_f(f, g.n, modality), check_finite(phi, "phi")
    return r, f, phi, (_sector_fi_function(g.n, r, f, phi, modality)
                       or _dense_fi_function(g, r, f, phi, modality))


def _sector_fi_function(n, r, f, phi, modality):
    """Two-angle star FI on the symmetric sector, for leaves of one responsivity.

    The ansatz gives sigma_M and d sigma_M the form hub + (a I + b J) on the
    m = n - 1 leaves, so both are block diagonal in the basis (hub,
    symmetric leaf mode, m - 1 antisymmetric leaf modes): a 2x2 sector S2 and
    the (m - 1)-fold eigenvalue a. With x = e^{2r}, p = sin(psi),
    q = cos(psi) and psi = theta - f phi (psi = theta for displacement),

        S2 = [[h, c sqrt(m)], [c sqrt(m), a + b m]],
        h = x q_H^2 m / 2 + (x p_H^2 + q_H^2 / x) / 2,
        c = x (q_H p_L + p_H q_L) / 2,  a = (x p_L^2 + q_L^2 / x) / 2,
        b = x q_L^2 / 2,

    FI_phase = Tr[(S2^-1 dS2)^2] / 2 + (m - 1) (da / a)^2 / 2 and
    FI_disp = d2^T S2^-1 d2 with d2 = (p_H f_n - q_H f_0,
    sqrt(m) (p_L f_{n+1} - q_L f_1)). Since sigma_M = x L L^T / 2 +
    diag(q)^2 / (2x) with L = diag(p) + diag(q) A, det S2 is a sum of
    non-negative terms and is evaluated that way, without cancellation.

    Returns fi(alpha, beta), which takes floats or numpy arrays, or None
    when the leaves' responsivities differ.
    """
    if modality == "phase":
        if np.any(f[1:] != f[-1]):
            return None
        f_h, f_l = float(f[0]), float(f[-1])
        shift_h, shift_l = f_h * phi, f_l * phi
    else:
        if np.any(f[1:n] != f[n - 1]) or np.any(f[n + 1:] != f[-1]):
            return None
        fq_h, fq_l, fp_h, fp_l = (float(v) for v in f[[0, n - 1, n, -1]])
        shift_h = shift_l = 0.0
    m = n - 1
    rm = math.sqrt(m)
    x = math.exp(2.0 * r)

    def fi(alpha, beta):
        if isinstance(alpha, np.ndarray):
            sin, cos = np.sin, np.cos
        else:
            sin, cos = math.sin, math.cos
        ph, qh = sin(alpha - shift_h), cos(alpha - shift_h)
        pl, ql = sin(beta - shift_l), cos(beta - shift_l)
        h = 0.5 * (x * (m * qh * qh + ph * ph) + qh * qh / x)
        if modality == "displacement":
            d1 = ph * fp_h - qh * fq_h
            if m == 0:
                return d1 * d1 / h
            d2 = rm * (pl * fp_l - ql * fq_l)
        else:
            dph, dqh = -f_h * qh, f_h * ph
            dh = x * (m * qh * dqh + ph * dph) + qh * dqh / x
            if m == 0:
                return 0.5 * (dh / h) ** 2
        s12 = 0.5 * rm * x * (qh * pl + ph * ql)
        a = 0.5 * (x * pl * pl + ql * ql / x)
        s22 = a + 0.5 * m * x * ql * ql
        lin = ph * pl - m * qh * ql
        det = (0.25 * x * x * lin * lin
               + 0.25 * (qh * qh * pl * pl + ql * ql * ph * ph + 2.0 * m * qh * qh * ql * ql)
               + 0.25 * qh * qh * ql * ql / (x * x))
        if modality == "displacement":
            return (s22 * d1 * d1 - 2.0 * s12 * d1 * d2 + h * d2 * d2) / det
        dpl, dql = -f_l * ql, f_l * pl
        d12 = 0.5 * rm * x * (dqh * pl + qh * dpl + dph * ql + ph * dql)
        da = x * pl * dpl + ql * dql / x
        d22 = da + m * x * ql * dql
        # adj(S2) dS2, whose squared trace over det^2 is Tr[(S2^-1 dS2)^2]
        k11 = s22 * dh - s12 * d12
        k12 = s22 * d12 - s12 * d22
        k21 = h * d12 - s12 * dh
        k22 = h * d22 - s12 * d12
        return (0.5 * (k11 * k11 + 2.0 * k12 * k21 + k22 * k22) / (det * det)
                + 0.5 * (m - 1) * (da / a) ** 2)

    return fi


def _dense_fi_function(g: Graph, r, f, phi, modality):
    """Two-angle star FI through the full n x n moments, for any leaf responsivities.

    Returns fi(alpha, beta), which takes floats or numpy arrays; arrays are
    evaluated in blocks of BLOCK angle pairs, so each moment array holds
    BLOCK * n^2 entries whatever the number of pairs.
    """
    n = g.n

    def block_fi(alphas, betas):
        theta = np.empty((alphas.size, n))
        theta[:, 0] = alphas
        theta[:, 1:] = betas[:, None]
        return _fisher(*_moments(g, r, f, phi, theta, modality)[1:])

    def fi(alpha, beta):
        if not isinstance(alpha, np.ndarray):
            return float(block_fi(np.array([alpha]), np.array([beta]))[0])
        a, b = alpha.ravel(), beta.ravel()
        return np.concatenate([block_fi(a[k:k + BLOCK], b[k:k + BLOCK])
                               for k in range(0, a.size, BLOCK)]).reshape(alpha.shape)

    return fi


def fi_star_ansatz(g: Graph, r, f, phi, alpha, beta, modality) -> float:
    """FI of the two-angle star setting: alpha on the hub, beta on the leaves.

    Leaves of one responsivity take the O(1) sector route of
    `_sector_fi_function`; otherwise the dense moments are built.
    """
    *_, fi = _ansatz(g, r, f, phi, modality)
    return float(fi(check_finite(alpha, "alpha"), check_finite(beta, "beta")))


def saturate_displacement(g: Graph, r, f):
    """Per-mode homodyne angles that reach the displacement QFI on any graph.

    Returns (theta, fi): one angle per mode in [0, pi) and the FI there.

    The mean derivative is delta = (f_p, -f_q) in (q, p) order and the QFI is
    delta^T S^-1 delta. Measuring mode j at theta_j = atan2(v_qj, v_pj) with
    v = S^-1 delta makes the measured quadratures span v, so the homodyne FI
    equals the QFI. Purity gives S^-1 = -4 Omega S Omega, so v = 4 Omega S f
    with f = (f_q, f_p), and S f = (x/2) (u, w) for x = e^{2r},

        u = f_q + A f_p,   w = A u + e^{-4r} f_p,

    hence theta = atan2(w, -u) mod pi from two products with A; neither the
    covariance nor A^2 is formed. A mode with u_j = w_j = 0 carries no signal
    and gets theta_j = 0.

    The FI is evaluated at theta, not taken from the QFI: through
    `fi_star_ansatz` on a star whose leaves share one angle (the O(1) sector
    when the leaves share one responsivity), otherwise through the dense
    moments.
    """
    r, f = check_r(r), check_f(f, g.n, "displacement")
    n = g.n
    fq, fp = f[:n], f[n:]
    u = fq + g.adjacency @ fp
    w = g.adjacency @ u + math.exp(-4.0 * r) * fp
    theta = np.mod(np.arctan2(w, -u), np.pi)
    theta[theta == np.pi] = 0.0  # a tiny negative angle rounds up to pi
    if _is_star(g) and np.all(theta[1:] == theta[1:2]):
        fi = fi_star_ansatz(g, r, f, 0.0, theta[0], theta[min(1, n - 1)], "displacement")
    else:
        fi = float(_fisher(*_moments(g, r, f, 0.0, theta[None], "displacement")[1:])[0])
    return theta, fi


def optimize_angles(g: Graph, r, f, phi):
    """Maximize the two-angle star FI of phase sensing; returns (alpha, beta, fi_value).

    Deterministic: a 64x64 grid over [0, 2*pi)^2 locates the broad basins,
    augmented by a fixed set of squeezing-aware starts near the quadrature
    axes. The extra starts matter at large r, where the global optimum sits
    on a ridge of width ~e^{-2r} that the coarse grid cannot resolve. All
    candidates are ranked by their FI value; simplex refinement runs coarsely
    from the leaders and once more, tightly, from the winner, with FI
    tolerances relative to the best candidate's value.
    """
    r, f, phi, fi = _ansatz(g, r, f, phi, "phase")

    grid = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    vals = fi(aa, bb)

    cand = []
    taken = []
    order = np.argsort(vals, axis=None)[::-1]
    for k in order:
        i, j = divmod(int(k), grid.size)
        if any(min(abs(i - ti), grid.size - abs(i - ti)) <= 2
               and min(abs(j - tj), grid.size - abs(j - tj)) <= 2
               for ti, tj in taken):
            continue
        taken.append((i, j))
        cand.append((float(vals[i, j]), grid[i], grid[j]))
        if len(cand) >= 6:
            break

    # quadrature-axis starts, offset by the squeezing scale; the landscape is
    # a rigid shift by f*phi of the phi=0 landscape
    eps = np.exp(-2.0 * abs(r))
    shift_a = float(f[0]) * phi
    shift_b = float(np.mean(f[1:])) * phi if g.n > 1 else shift_a
    extra = [(a0 + shift_a + da, b0 + shift_b + db)
             for a0 in (0.0, 0.5 * np.pi)
             for b0 in (0.0, 0.5 * np.pi)
             for da in (-eps, 0.0, eps)
             for db in (-eps, 0.0, eps)]
    ea = np.array([s[0] for s in extra])
    eb = np.array([s[1] for s in extra])
    evals = fi(ea, eb)
    cand.extend(zip(evals.tolist(), ea.tolist(), eb.tolist()))

    # keep the most promising torus-separated candidates
    cand.sort(key=lambda t: t[0], reverse=True)
    starts = []
    for val, a, b in cand:
        da = np.mod(np.asarray([a - s[0] for s in starts]), TWO_PI)
        db = np.mod(np.asarray([b - s[1] for s in starts]), TWO_PI)
        da = np.minimum(da, TWO_PI - da)
        db = np.minimum(db, TWO_PI - db)
        if starts and np.any((da < 0.02) & (db < 0.02)):
            continue
        starts.append((a, b))
        if len(starts) >= 8:
            break

    def neg(ab):
        return -fi(*ab.tolist())

    # FI tolerances scale with the best candidate: at large r the FI reaches
    # 1e3..1e6, where a fixed absolute tolerance cannot be resolved
    scale = cand[0][0]
    best_val = -np.inf
    best_ab = None
    for s in starts:
        res = minimize(neg, np.asarray(s, dtype=float), method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-10 * scale, "maxiter": 600})
        if -res.fun > best_val:
            best_val = -res.fun
            best_ab = res.x
    tight = {"xatol": 1e-11, "fatol": 1e-13 * scale, "maxiter": 4000}
    res = minimize(neg, best_ab, method="Nelder-Mead", options=tight)
    # the coarse starts only rank candidates; the returned angles come from here
    if not res.success:
        warnings.warn(f"angle refinement did not converge after {res.nfev} FI "
                      f"evaluations (maxiter={tight['maxiter']})", RuntimeWarning,
                      stacklevel=2)
    if -res.fun > best_val:
        best_val = -res.fun
        best_ab = res.x
    alpha, beta = np.mod(best_ab, TWO_PI)
    return float(alpha), float(beta), float(best_val)


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
