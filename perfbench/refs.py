"""Independent references the benchmark checks gtokit's outputs against.

Nothing here imports gtokit.  Each reference is computed by a route other
than gtokit's own, from the definitions the paper and the package docs state:

- the symplectic form, passive matrices and symplectic eigenvalues are
  rebuilt in plain numpy;
- channel outputs come from the explicit dilation, appending thermal bath
  modes, applying the passive form of the coupling unitary and pinching the
  system block of ``O (sigma + nu_b 1) O^T``, in the normal coordinates
  ``S^T r`` of ``H = S diag(omega) S^T``, where the Gibbs state is
  ``S^-T diag(nu) S^-1``;
- cooling traces are recomputed in 50-digit ``mpmath``, and entropies by a
  form of the entropy that does not cancel;
- single-mode verdicts come from the two closed-form axis equations, and
  unsqueezed ones from the ``min/max(nu_i, nu_b)`` interval rule;
- thermo-majorization verdicts come from the rule that ``beta_f`` must lie
  between ``beta_i`` and the bath's ``beta``.
"""

import math

import numpy as np

# Relative tolerance under which the reference calls the two axis values of
# ``p`` equal; the benchmark's generated queries sit far from this boundary.
AXIS_TOL = 1e-9
# Largest single-mode squeezing factor of a random symplectic matrix.
MAX_SQUEEZE = 2.0


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for mode-major ordering (x1, p1, x2, p2, ...)."""
    J = np.zeros((2 * n_modes, 2 * n_modes))
    idx = np.arange(n_modes)
    J[2 * idx, 2 * idx + 1] = 1.0
    J[2 * idx + 1, 2 * idx] = -1.0
    return J


def passive(U: np.ndarray) -> np.ndarray:
    """Real orthogonal symplectic matrix of a unitary: block (j, k) is
    [[Re U_jk, Im U_jk], [-Im U_jk, Re U_jk]]."""
    n = U.shape[0]
    K = np.empty((2 * n, 2 * n))
    K[0::2, 0::2] = U.real
    K[0::2, 1::2] = U.imag
    K[1::2, 0::2] = -U.imag
    K[1::2, 1::2] = U.real
    return K


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR factorization of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_symplectic(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """Passive @ single-mode squeezers @ passive, squeezing log-uniform up to ``MAX_SQUEEZE``."""
    r = rng.uniform(-math.log(MAX_SQUEEZE), math.log(MAX_SQUEEZE), size=n_modes)
    stretch = np.repeat(np.exp(r), 2)
    stretch[1::2] = 1.0 / stretch[1::2]
    K1 = passive(haar_unitary(n_modes, rng))
    K2 = passive(haar_unitary(n_modes, rng))
    return (K1 * stretch) @ K2


def coth_half(x: float) -> float:
    """Thermal symplectic eigenvalue ``(e^x + 1) / (e^x - 1)`` at ``x = beta * omega``."""
    return (math.exp(x) + 1.0) / math.expm1(x) if x < 700 else 1.0


def symplectic_eigenvalues(P: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues (descending) as the moduli of the eigenvalues of ``i Omega P``."""
    ev = np.sort(np.abs(np.linalg.eigvals(1j * omega(P.shape[0] // 2) @ P)))[::-1]
    return ev[0::2]


def symplectic_residual(S: np.ndarray) -> float:
    """``max |S Omega S^T - Omega|`` relative to ``max |S|^2``."""
    Om = omega(S.shape[0] // 2)
    return float(np.abs(S @ Om @ S.T - Om).max() / max(1.0, np.abs(S).max() ** 2))


def pinch(system_cm: np.ndarray, U: np.ndarray, bath_nus) -> np.ndarray:
    """System block of ``O (system_cm + bath) O^T`` for the passive form ``O`` of ``U``."""
    dim = system_cm.shape[0]
    bath = np.repeat(np.asarray(bath_nus, dtype=float), 2)
    joint = np.zeros((dim + bath.size, dim + bath.size))
    joint[:dim, :dim] = system_cm
    joint[dim:, dim:] = np.diag(bath)
    O = passive(U)
    return (O @ joint @ O.T)[:dim, :dim]


def single_mode_cm(nu: float, z: float, phi: float) -> np.ndarray:
    """``nu R diag(z, 1/z) R^T`` with ``R = [[cos phi, sin phi], [-sin phi, cos phi]]``."""
    c, s = math.cos(phi), math.sin(phi)
    R = np.array([[c, s], [-s, c]])
    return nu * (R * [z, 1.0 / z]) @ R.T


def beam_splitter_unitary(Z: np.ndarray, thetas: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``(W + 1) [[C, S], [-S, C]] (Z + 1)`` on d system modes followed by d bath modes."""
    d = Z.shape[0]
    C, S = np.diag(np.cos(thetas)), np.diag(np.sin(thetas))
    left = np.eye(2 * d, dtype=complex)
    left[:d, :d] = W
    right = np.eye(2 * d, dtype=complex)
    right[:d, :d] = Z
    return left @ np.block([[C, S], [-S, C]]) @ right


def gibbs_cm(S: np.ndarray, nus) -> np.ndarray:
    """Gibbs state of ``H = S diag(omega) S^T``: thermal at ``nus`` in the normal
    coordinates ``S^T r``, so ``S^-T diag(nus) S^-1`` in the original ones."""
    S_inv = np.linalg.inv(S)
    return (S_inv.T * np.repeat(np.asarray(nus, dtype=float), 2)) @ S_inv


def sector_dilation(cm: np.ndarray, r: np.ndarray, S: np.ndarray, beta: float, sectors) -> tuple:
    """Thermal-operation output through one bath mode per system mode.

    ``sectors`` holds ``(omega, mode_indices, Z, thetas, W)``; each sector's
    modes couple to their own bath modes, at ``coth(beta omega / 2)``, by the
    beam-splitter unitary of that sector.  The coupling acts on the normal
    coordinates ``S^T r`` of ``H = S diag(omega) S^T``.

    Returns:
        (output cm, output first moments).
    """
    n = cm.shape[0] // 2
    S_inv = np.linalg.inv(S)
    cm_nm = S.T @ cm @ S
    r_nm = S.T @ r
    U = np.eye(2 * n, dtype=complex)
    bath_nus = np.empty(n)
    for om, modes, Z, thetas, W in sectors:
        idx = list(modes) + [n + m for m in modes]
        U[np.ix_(idx, idx)] = beam_splitter_unitary(Z, thetas, W)
        bath_nus[list(modes)] = coth_half(beta * om)
    out = pinch(cm_nm, U, bath_nus)
    r_out = (passive(U) @ np.concatenate([r_nm, np.zeros(2 * n)]))[: 2 * n]
    return S_inv.T @ out @ S_inv, S_inv.T @ r_out


def cs_reconstruct(W, X, Z, Y, thetas) -> np.ndarray:
    """``(W + X) [[C, S], [-S, C]] (Z + Y)`` with direct sums."""
    n = W.shape[0]
    left = np.zeros((2 * n, 2 * n), dtype=complex)
    left[:n, :n], left[n:, n:] = W, X
    right = np.zeros((2 * n, 2 * n), dtype=complex)
    right[:n, :n], right[n:, n:] = Z, Y
    C, S = np.diag(np.cos(thetas)), np.diag(np.sin(thetas))
    return left @ np.block([[C, S], [-S, C]]) @ right


def axis_verdicts(queries: np.ndarray) -> tuple:
    """Reachability under a phase-insensitive bath from the two axis equations.

    Each row of ``queries`` is ``(nu_i, z_i, nu_f, z_f, nu_b)``.
    ``nu_f z_f = p nu_i z_i + (1-p) nu_b`` and
    ``nu_f / z_f = p nu_i / z_i + (1-p) nu_b`` must share one ``p`` in [0, 1].
    An axis whose input already equals ``nu_b`` constrains nothing but its
    own target.

    Returns:
        (feasible, p) arrays; ``p`` is NaN where infeasible.
    """
    nu_i, z_i, nu_f, z_f, nu_b = np.asarray(queries, dtype=float).T
    feasible = np.ones(len(nu_i), bool)
    ps = []
    for start, target in ((nu_i * z_i, nu_f * z_f), (nu_i / z_i, nu_f / z_f)):
        scale = np.maximum(1.0, np.maximum(start, nu_b))
        degenerate = np.abs(start - nu_b) <= AXIS_TOL * scale
        feasible &= ~(degenerate & (np.abs(target - nu_b) > AXIS_TOL * scale))
        with np.errstate(divide="ignore", invalid="ignore"):
            ps.append(np.where(degenerate, np.nan, (target - nu_b) / (start - nu_b)))
    p_a, p_b = ps
    feasible &= ~(np.abs(p_a - p_b) > AXIS_TOL * np.maximum(1.0, np.abs(p_a)))  # NaN compares False
    p = np.where(np.isnan(p_a), np.where(np.isnan(p_b), 1.0, p_b), p_a)
    feasible &= (p >= -AXIS_TOL) & (p <= 1.0 + AXIS_TOL)
    return feasible, np.where(feasible, np.clip(p, 0.0, 1.0), np.nan)


def interval_verdict(nu_i, nu_f, nu_b):
    """Unsqueezed reachability: ``min(nu_i, nu_b) <= nu_f <= max(nu_i, nu_b)``."""
    return (np.minimum(nu_i, nu_b) <= nu_f) & (nu_f <= np.maximum(nu_i, nu_b))


def forward_target(nu_i, z_i, nu_b, p) -> tuple:
    """(nu_f, z_f) reached at weight ``p``: principal axes mix linearly with the bath."""
    x = p * nu_i * z_i + (1.0 - p) * nu_b
    y = p * nu_i / z_i + (1.0 - p) * nu_b
    return np.sqrt(x * y), np.sqrt(x / y)


def majorization_verdict(beta_i, beta_f, beta) -> bool:
    """Thermal-diagonal reachability: ``beta_f`` lies between ``beta_i`` and ``beta``."""
    return min(beta_i, beta) <= beta_f <= max(beta_i, beta)


def squeezed_bath_residual(nu_i, z_i, nu_f, z_f, nu_b, vartheta, p) -> float:
    """Relative residual of the squeezed-bath quadratic in ``p`` stated in the paper."""
    c2, s2 = math.cos(vartheta) ** 2, math.sin(vartheta) ** 2
    xi = 0.5 * (c2 * (z_i / z_f + z_f / z_i) + s2 * (z_i * z_f + 1.0 / (z_i * z_f)))
    val = p * p * (nu_i**2 - nu_b**2) + 2.0 * p * (nu_b**2 - xi * nu_i * nu_f) + nu_f**2 - nu_b**2
    return abs(val) / max(1.0, nu_i**2, nu_f**2, nu_b**2)


def thermo_curve(beta_i: float, beta: float, E: float, N: int) -> np.ndarray:
    """Breakpoints of the majorization curve of a geometric distribution.

    ``p_n / g_n`` is monotone in the level ``n``, so the sorted order is the
    level order when ``beta_i > beta`` (colder than the bath) and reversed
    otherwise.
    """
    levels = np.arange(N)
    p = np.exp(-beta_i * E * levels)
    g = np.exp(-beta * E * levels)
    p, g = p / p.sum(), g / g.sum()
    if beta_i < beta:
        p, g = p[::-1], g[::-1]
    xs = np.concatenate(([0.0], np.cumsum(g)))
    ys = np.concatenate(([0.0], np.cumsum(p)))
    return np.column_stack((xs, ys))


def cooling_trace(nu0: float, nu_b: float, steps) -> list:
    """Exact single-mode cooling trace in 50-digit arithmetic.

    ``steps`` holds ``(squeeze, rotate, p, phi)``: the state is conjugated by
    ``R(rotate) diag(squeeze, 1/squeeze)``, then mixed as
    ``p R(phi) cm R(phi)^T + (1 - p) nu_b 1``.  The two rotations compose,
    so each step conjugates once by ``R(phi + rotate) diag(squeeze, 1/squeeze)``.

    Returns:
        One ``(nu, kappa)`` per trace entry, entry 0 the initial state;
        ``kappa = a c / det`` is the conditioning of ``cm = [[a, b], [b, c]]``
        that sets how many digits a double-precision ``sqrt(det)`` keeps.
    """
    import mpmath

    with mpmath.workdps(50):
        mpf = mpmath.mpf
        a, b, c = mpf(nu0), mpf(0), mpf(nu0)
        nub = mpf(nu_b)
        out = [(float(mpmath.sqrt(a * c - b * b)), 1.0)]
        for squeeze, rotate, p, phi in steps:
            co, si = mpmath.cos(mpf(rotate) + mpf(phi)), mpmath.sin(mpf(rotate) + mpf(phi))
            z = mpf(squeeze)
            u11, u12, u21, u22 = co * z, si / z, -si * z, co / z
            a, b, c = (
                u11 * u11 * a + 2 * u11 * u12 * b + u12 * u12 * c,
                u11 * u21 * a + (u11 * u22 + u12 * u21) * b + u12 * u22 * c,
                u21 * u21 * a + 2 * u21 * u22 * b + u22 * u22 * c,
            )
            pm = mpf(p)
            a, b, c = pm * a + (1 - pm) * nub, pm * b, pm * c + (1 - pm) * nub
            det = a * c - b * b
            out.append((float(mpmath.sqrt(det)), float(a * c / det)))
    return out


def entropy(nu: float) -> float:
    """Von Neumann entropy of a mode with symplectic eigenvalue ``nu``.

    Written as ``ln((nu+1)/2) + (nu-1)/2 ln(1 + 2/(nu-1))``: both terms are
    non-negative, so unlike the textbook difference of two ``x ln x`` terms
    nothing cancels.
    """
    if nu == 1.0:
        return 0.0
    return math.log(0.5 * (nu + 1.0)) + 0.5 * (nu - 1.0) * math.log1p(2.0 / (nu - 1.0))
