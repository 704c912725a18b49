"""Symplectic linear-algebra kernel.

All phase-space objects use the mode-major quadrature ordering
(x1, p1, x2, p2, ...), so the symplectic form is a direct sum of 2x2 blocks
[[0, 1], [-1, 0]], one per mode.  Passive (orthogonal symplectic) matrices
are handled through their complex unitary representation: the n x n unitary
U corresponds to the 2n x 2n real matrix whose (j, k) block is
[[Re U_jk, Im U_jk], [-Im U_jk, Re U_jk]].

Only three kernels need LAPACK routines that scipy alone provides
(``williamson``, ``triangularize_offdiagonal``, ``cosine_sine_decompose``);
each imports them when it runs, so importing gtokit loads numpy only.
"""

from dataclasses import dataclass, field

import numpy as np

STRUCTURAL_TOL = 1e-9

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_SWAP_2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def block_diag(*blocks) -> np.ndarray:
    """Direct sum of 2-D blocks: each on the diagonal, zeros elsewhere.

    The numpy counterpart of ``scipy.linalg.block_diag``: same placement and
    the same dtype (``np.result_type`` of the blocks), so importing gtokit
    does not load scipy.
    """
    blocks = [np.atleast_2d(b) for b in blocks] or [np.zeros((1, 0))]
    rows, cols = map(sum, zip(*(b.shape for b in blocks)))
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        h, w = b.shape
        out[r:r + h, c:c + w] = b
        r += h
        c += w
    return out


_OMEGAS: dict = {}


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form on ``n_modes`` modes: direct sum of [[0,1],[-1,0]] blocks.

    Built once per mode count and shared: the returned array is read-only.
    """
    Om = _OMEGAS.get(n_modes)
    if Om is None:
        if n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        Om = np.kron(np.eye(n_modes), _OMEGA_1)
        Om.flags.writeable = False
        _OMEGAS[n_modes] = Om
    return Om


def _check_square_even(M: np.ndarray, name: str = "matrix") -> int:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] % 2 != 0:
        raise ValueError(f"{name} must have even dimension, got {M.shape[0]}")
    return M.shape[0] // 2


def is_symplectic(S: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff ``S Omega S^T = Omega`` entrywise within ``tol``."""
    S = np.asarray(S, dtype=float)
    n = _check_square_even(S, "S")
    Om = omega(n)
    return bool(np.abs(S @ Om @ S.T - Om).max() <= tol)


def is_passive(S: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff ``S`` is symplectic and orthogonal (``S S^T = 1``) within ``tol``."""
    S = np.asarray(S, dtype=float)
    if not is_symplectic(S, tol):
        return False
    return bool(np.abs(S @ S.T - np.eye(S.shape[0])).max() <= tol)


def _check_unitary(U: np.ndarray, tol: float, name: str = "U") -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"{name} must be square, got shape {U.shape}")
    err = np.abs(U @ U.conj().T - np.eye(U.shape[0])).max()
    if err > tol:
        raise ValueError(f"{name} is not unitary (deviation {err:.3e} > {tol:.3e})")
    return U


def unitary_to_passive(U: np.ndarray, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Real orthogonal symplectic matrix acting on quadratures as ``U`` acts on modes.

    The map is a group isomorphism: it sends products to products and the
    single-mode phase ``e^{i phi}`` to the rotation
    [[cos phi, sin phi], [-sin phi, cos phi]].

    Args:
        U: n x n unitary matrix.
        tol: unitarity tolerance for input validation.

    Returns:
        2n x 2n real orthogonal symplectic matrix in mode-major ordering.
    """
    U = _check_unitary(U, tol)
    return np.kron(U.real, np.eye(2)) + np.kron(U.imag, _OMEGA_1)


def passive_to_unitary(K: np.ndarray, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Inverse of :func:`unitary_to_passive`.

    Args:
        K: 2n x 2n passive (orthogonal symplectic) matrix.
        tol: passivity tolerance for input validation.

    Returns:
        n x n complex unitary with ``unitary_to_passive(U) == K``.
    """
    K = np.asarray(K, dtype=float)
    _check_square_even(K, "K")
    if not is_passive(K, tol):
        raise ValueError("K is not a passive (orthogonal symplectic) matrix")
    return K[0::2, 0::2] + 1j * K[0::2, 1::2]


@dataclass(frozen=True)
class WilliamsonForm:
    """Congruence normal form ``P = S (diag nu_j x 1_2) S^T`` with symplectic S."""

    S: np.ndarray
    nus: np.ndarray

    @property
    def normal_form(self) -> np.ndarray:
        """The diagonal matrix ``diag(nu_1, nu_1, ..., nu_n, nu_n)``."""
        return np.diag(np.repeat(self.nus, 2))

    def reconstruct(self) -> np.ndarray:
        return self.S @ self.normal_form @ self.S.T


def _is_symmetric(M: np.ndarray, tol: float) -> bool:
    """``|M - M^T| <= tol * max(1, max |M|)`` entrywise; False for a NaN or infinite entry."""
    return bool(np.abs(M - M.T).max() <= tol * max(1.0, np.abs(M).max()))


def _check_spd(P: np.ndarray, tol: float, name: str = "P") -> np.ndarray:
    """Refuse ``P`` unless square, even, finite, symmetric within ``tol`` and positive definite."""
    P = np.asarray(P, dtype=float)
    _check_square_even(P, name)
    if not np.isfinite(P).all():
        raise ValueError(f"{name} must be finite")
    if not _is_symmetric(P, tol):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(P).min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    return 0.5 * (P + P.T)


def williamson(P: np.ndarray, tol: float = STRUCTURAL_TOL) -> WilliamsonForm:
    """Williamson decomposition of a positive-definite matrix of even dimension.

    Finds a symplectic ``S`` and symplectic eigenvalues ``nu_j`` (sorted
    descending) with ``S (direct sum of nu_j 1_2) S^T = P``.  The construction
    takes the real Schur form of the antisymmetric matrix
    ``P^{-1/2} Omega P^{-1/2}``, whose 2x2 blocks carry ``1/nu_j``, and sets
    ``S = P^{1/2} Q D^{-1/2}``.

    Args:
        P: symmetric positive-definite matrix, shape (2n, 2n).
        tol: symmetry tolerance for input validation.

    Returns:
        WilliamsonForm with ``S`` symplectic and ``nus`` sorted descending.
    """
    from scipy.linalg import schur

    P = _check_spd(P, tol)
    n = P.shape[0] // 2
    Om = omega(n)

    w, V = np.linalg.eigh(P)
    sqrt_P = (V * np.sqrt(w)) @ V.T
    inv_sqrt_P = (V * (1.0 / np.sqrt(w))) @ V.T

    M = inv_sqrt_P @ Om @ inv_sqrt_P
    M = 0.5 * (M - M.T)
    T, Q = schur(M, output="real")

    # Schur form of a nonsingular antisymmetric matrix is block diagonal with
    # 2x2 blocks [[0, b], [-b, 0]]; flip each block so b > 0 and read nu = 1/b.
    nus = np.empty(n)
    fixups = []
    for j in range(n):
        b = T[2 * j, 2 * j + 1]
        if abs(b) < 1e-300:
            raise ValueError("P is numerically singular under the symplectic form")
        if b < 0:
            fixups.append(_SWAP_2)
            b = -b
        else:
            fixups.append(np.eye(2))
        nus[j] = 1.0 / b
    Q = Q @ block_diag(*fixups)

    order = np.argsort(-nus, kind="stable")
    nus = nus[order]
    cols = np.empty(2 * n, dtype=int)
    cols[0::2] = 2 * order
    cols[1::2] = 2 * order + 1
    Q = Q[:, cols]

    S = (sqrt_P @ Q) * (1.0 / np.sqrt(np.repeat(nus, 2)))
    return WilliamsonForm(S=S, nus=nus)


def symplectic_eigenvalues(P: np.ndarray, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive-definite matrix, descending.

    Computed as the absolute values of the eigenvalues of ``i Omega P``, which
    come in pairs ``+-nu_j``; one value per mode is returned.
    """
    P = _check_spd(P, tol)
    n = P.shape[0] // 2
    ev = np.abs(np.linalg.eigvals(1j * omega(n) @ P))
    return np.sort(ev)[::-1][::2].copy()


def triangularize_offdiagonal(U: np.ndarray, n: int, m: int, tol: float = STRUCTURAL_TOL):
    """Compress the off-diagonal blocks of a unitary into leading triangles.

    For an (n+m)-dimensional unitary ``U`` with ``m >= n``, returns bath-side
    unitaries ``U_m`` and ``V_m`` such that
    ``(1_n + U_m) U (1_n + V_m)`` (direct sums) has its top-right n x m block
    and the transpose of its bottom-left block supported on their leading
    n x n lower-triangular parts.  Both reductions are one-sided QR
    factorizations, so a bath larger than the system never couples more than
    n of its modes to the system.

    Args:
        U: (n+m) x (n+m) unitary.
        n: system block size.
        m: bath block size, m >= n.

    Returns:
        Tuple ``(U_m, V_m, U_reduced)``.
    """
    from scipy.linalg import qr

    if m < n:
        raise ValueError(f"bath block must be at least as large as system (m={m} < n={n})")
    U = _check_unitary(U, tol)
    if U.shape[0] != n + m:
        raise ValueError(f"U has dimension {U.shape[0]}, expected n+m={n + m}")

    beta = U[:n, n:]
    gamma_t = U[n:, :n]
    # beta @ V_m becomes lower-triangular-leading: QR of beta^H gives
    # beta = R^H Q^H with R^H in the target shape.
    V_m, _ = qr(beta.conj().T)
    # U_m @ gamma_t becomes upper-triangular (top n x n part): plain QR.
    Q_g, _ = qr(gamma_t)
    U_m = Q_g.conj().T

    left = block_diag(np.eye(n), U_m)
    right = block_diag(np.eye(n), V_m)
    return U_m, V_m, left @ U @ right


@dataclass(frozen=True)
class CosineSineForm:
    """Beam-splitter reduction ``U = (W + X) (R_n + ... + R_1) (Z + Y)``.

    ``W, Z`` act on the first n modes (system side) and ``X, Y`` on the last n
    (bath side); all direct sums.  Each ``R_j`` is a real beam splitter mixing
    mode j with mode n+j through angle ``thetas[j]``, i.e. the 2n-dimensional
    middle factor is [[C, S], [-S, C]] with C = diag(cos thetas),
    S = diag(sin thetas).
    """

    W: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    thetas: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def middle_factor(self) -> np.ndarray:
        C = np.diag(np.cos(self.thetas))
        S = np.diag(np.sin(self.thetas))
        return np.block([[C, S], [-S, C]])

    def reconstruct(self) -> np.ndarray:
        return block_diag(self.W, self.X) @ self.middle_factor() @ block_diag(self.Z, self.Y)


def cosine_sine_decompose(U: np.ndarray, tol: float = STRUCTURAL_TOL) -> CosineSineForm:
    """Cosine-sine decomposition of a 2n x 2n unitary into the beam-splitter form.

    The angles satisfy ``sin(thetas[j]) = j-th singular value`` of the
    top-right n x n block, clamped to [0, 1], so ``thetas`` lies in
    [0, pi/2] sorted ascending; the quadrant freedom is absorbed into the
    block unitaries.  The residual phase gauge of ``Z`` is whatever the
    underlying LAPACK CSD produces; it is deterministic but not canonicalized.

    Args:
        U: 2n x 2n unitary.
        tol: unitarity tolerance for input validation.

    Returns:
        CosineSineForm whose :meth:`~CosineSineForm.reconstruct` matches ``U``.
    """
    from scipy.linalg import cossin

    U = _check_unitary(U, tol)
    n2 = _check_square_even(U, "U")

    u, cs, vdh = cossin(U, p=n2, q=n2)
    cosines = np.clip(np.diag(cs[:n2, :n2]).real, -1.0, 1.0)
    sines = np.clip(np.diag(cs[n2:, :n2]).real, 0.0, 1.0)
    thetas = np.arctan2(sines, cosines)

    # cossin returns U = (U1+U2) [[C,-S],[S,C]] (V1h+V2h); conjugating the
    # middle factor by 1_n + (-1_n) converts it to [[C,S],[-S,C]].
    W = u[:n2, :n2]
    X = -u[n2:, n2:]
    Z = vdh[:n2, :n2]
    Y = -vdh[n2:, n2:]
    return CosineSineForm(W=W, X=X, Z=Z, Y=Y, thetas=thetas)


def build_isotropy_element(multiplicities, blocks, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Assemble a passive matrix preserving a sectored harmonic normal form.

    Given per-sector unitary blocks, returns the direct sum of their passive
    representations.  The result ``K`` satisfies ``K Y K^T = Y`` and
    ``[K, Y Omega] = 0`` for every ``Y = direct sum of omega_l 1_{2 d_l}``
    whose sector sizes ``d_l`` match ``multiplicities``, whatever the
    frequencies ``omega_l`` are.

    Args:
        multiplicities: number of modes in each frequency sector.
        blocks: one unitary per sector, with matching dimension.

    Returns:
        Real passive matrix of dimension ``2 * sum(multiplicities)``.
    """
    if len(multiplicities) != len(blocks):
        raise ValueError("need exactly one unitary block per sector")
    parts = []
    for d, block in zip(multiplicities, blocks):
        block = np.asarray(block, dtype=complex)
        if block.shape != (d, d):
            raise ValueError(f"sector block has shape {block.shape}, expected ({d}, {d})")
        parts.append(unitary_to_passive(block, tol))
    return block_diag(*parts)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic per seed.

    QR orthonormalization of a complex Gaussian matrix with the R-diagonal
    phases normalized away.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_symplectic(n_modes: int, seed: int, max_squeeze: float = 2.0) -> np.ndarray:
    """Random symplectic matrix ``K1 @ squeeze @ K2``, deterministic per seed.

    The two passive factors are Haar unitaries in passive representation and
    the middle factor squeezes each mode by a factor drawn log-uniformly from
    [1/max_squeeze, max_squeeze].
    """
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=2)
    K1 = unitary_to_passive(random_unitary(n_modes, int(seeds[0])))
    K2 = unitary_to_passive(random_unitary(n_modes, int(seeds[1])))
    r = rng.uniform(-np.log(max_squeeze), np.log(max_squeeze), size=n_modes)
    stretch = np.empty(2 * n_modes)
    stretch[0::2] = np.exp(r)
    stretch[1::2] = np.exp(-r)
    return K1 @ np.diag(stretch) @ K2
