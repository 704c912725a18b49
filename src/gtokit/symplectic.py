"""Symplectic linear-algebra kernel.

All phase-space objects use the mode-major quadrature ordering
(x1, p1, x2, p2, ...), so the symplectic form is a direct sum of 2x2 blocks
[[0, 1], [-1, 0]], one per mode.  Passive (orthogonal symplectic) matrices
are handled through their complex unitary representation: the n x n unitary
U corresponds to the 2n x 2n real matrix whose (j, k) block is
[[Re U_jk, Im U_jk], [-Im U_jk, Re U_jk]].

Every kernel runs on numpy's LAPACK alone: the runtime needs numpy only.
The Williamson form and the symplectic eigenvalues share one Hermitian
eigenproblem, and the cosine-sine decomposition is built from SVDs.
"""

from dataclasses import dataclass, field

import numpy as np

STRUCTURAL_TOL = 1e-9

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def block_diag(*blocks) -> np.ndarray:
    """Direct sum of 2-D blocks: each on the diagonal, zeros elsewhere.

    The numpy counterpart of ``scipy.linalg.block_diag``: same placement and
    the same dtype (``np.result_type`` of the blocks).
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


def is_symplectic(S: np.ndarray) -> bool:
    """True iff ``S Omega S^T = Omega`` entrywise within ``STRUCTURAL_TOL``.

    For one mode ``S Omega S^T = det(S) Omega``, so the residual is
    ``|det S - 1|``, computed from the four entries.
    """
    S = np.asarray(S, dtype=float)
    n = _check_square_even(S, "S")
    if n == 1:
        (s00, s01), (s10, s11) = S.tolist()
        return abs(s00 * s11 - s01 * s10 - 1.0) <= STRUCTURAL_TOL
    Om = omega(n)
    return bool(np.abs(S @ Om @ S.T - Om).max() <= STRUCTURAL_TOL)


def is_passive(S: np.ndarray) -> bool:
    """True iff ``S`` is symplectic and orthogonal (``S S^T = 1``) within ``STRUCTURAL_TOL``."""
    S = np.asarray(S, dtype=float)
    if not is_symplectic(S):
        return False
    return bool(np.abs(S @ S.T - np.eye(S.shape[0])).max() <= STRUCTURAL_TOL)


def _check_finite(M: np.ndarray, name: str) -> np.ndarray:
    """Refuse ``M`` if any entry is NaN or infinite, naming it ``name``."""
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite")
    return M


def _check_unitary(U: np.ndarray, tol: float, name: str = "U") -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"{name} must be square, got shape {U.shape}")
    err = np.abs(U @ U.conj().T - np.eye(U.shape[0])).max()
    if not err <= tol:  # a NaN deviation is refused too
        raise ValueError(f"{name} is not unitary (deviation {err:.3e} > {tol:.3e})")
    return U


def _realify(M: np.ndarray) -> np.ndarray:
    """Unchecked real 2n x 2n form of an n x n complex matrix, mode-major.

    Writes the four strided sub-lattices of the result directly: block
    ``(j, k)`` is [[Re M_jk, Im M_jk], [-Im M_jk, Re M_jk]].  The map is a
    real-algebra homomorphism, ``_realify(A @ B) = _realify(A) @ _realify(B)``
    and ``_realify(A^H) = _realify(A)^T``, so a product of passive factors can
    be formed in the n x n complex picture and converted once.
    """
    n = M.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = out[1::2, 1::2] = M.real
    out[0::2, 1::2] = M.imag
    out[1::2, 0::2] = -M.imag
    return out


def unitary_to_passive(U: np.ndarray) -> np.ndarray:
    """Real orthogonal symplectic matrix acting on quadratures as ``U`` acts on modes.

    The map is a group isomorphism: it sends products to products and the
    single-mode phase ``e^{i phi}`` to the rotation
    [[cos phi, sin phi], [-sin phi, cos phi]].  ``U`` is checked for
    unitarity, then converted by :func:`_realify` (no Kronecker products).

    Args:
        U: n x n unitary matrix, unitary within ``STRUCTURAL_TOL``.

    Returns:
        2n x 2n real orthogonal symplectic matrix in mode-major ordering.
    """
    return _realify(_check_unitary(U, STRUCTURAL_TOL))


def passive_to_unitary(K: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unitary_to_passive`.

    Args:
        K: 2n x 2n passive (orthogonal symplectic) matrix, checked with
           :func:`is_passive` at ``STRUCTURAL_TOL``.

    Returns:
        n x n complex unitary with ``unitary_to_passive(U) == K``.
    """
    K = np.asarray(K, dtype=float)
    _check_square_even(K, "K")
    if not is_passive(K):
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
    _check_finite(P, name)
    if not _is_symmetric(P, tol):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(P).min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    return 0.5 * (P + P.T)


def _symplectic_hermitian(P: np.ndarray, tol: float):
    """Cholesky factor ``L`` of a checked ``P`` and the Hermitian ``i L^T Omega L``.

    ``L^T Omega L`` is antisymmetric and similar to ``Omega P``, so the
    Hermitian matrix has eigenvalues ``+-nu_j``: its top n eigenvalues are
    the symplectic eigenvalues of ``P``.
    """
    P = _check_spd(P, tol)
    L = np.linalg.cholesky(P)
    return L, 1j * (L.T @ omega(P.shape[0] // 2) @ L)


def williamson(P: np.ndarray, tol: float = STRUCTURAL_TOL) -> WilliamsonForm:
    """Williamson decomposition of a positive-definite matrix of even dimension.

    Finds a symplectic ``S`` and symplectic eigenvalues ``nu_j`` (sorted
    descending) with ``S (direct sum of nu_j 1_2) S^T = P``.  With
    ``P = L L^T``, each eigenvector ``v_j`` of ``i L^T Omega L`` for
    ``+nu_j`` gives the orthonormal real pair ``sqrt(2) (Im v_j, Re v_j)``;
    these columns form an orthogonal ``K`` with
    ``K^T L^T Omega L K = direct sum of nu_j Omega_1``, so
    ``S = L K D^{-1/2}`` is symplectic.  Each ``v_j`` is phased so that its
    first largest-magnitude entry is ``+i |.|``, and equal ``nu_j`` (to
    rounding) keep the input's mode order, so a diagonal ``P`` whose
    symplectic eigenvalues do not increase along the modes gives a
    diagonal ``S``.

    Args:
        P: symmetric positive-definite matrix, shape (2n, 2n).
        tol: symmetry tolerance for input validation.

    Returns:
        WilliamsonForm with ``S`` symplectic and ``nus`` sorted descending.
    """
    L, A = _symplectic_hermitian(P, tol)
    n = L.shape[0] // 2
    w, V = np.linalg.eigh(A)
    nus, V = w[n:][::-1], V[:, n:][:, ::-1]
    if not nus[-1] > 0:
        raise ValueError("P is numerically singular under the symplectic form")

    # Eigenvectors of nu_j equal to within eigh's rounding (2n ulps of the
    # largest) are ordered by the position of their largest entry; nus stays
    # sorted, so it moves by rounding at most.
    lead = np.argmax(np.abs(V), axis=0)
    drops = np.diff(nus) < -2 * n * np.spacing(nus[0])
    order = np.lexsort((lead, np.cumsum(np.concatenate(([False], drops)))))
    V, lead = V[:, order], lead[order]
    top = V[lead, np.arange(n)]
    V = V * (1j * np.abs(top) / top)

    # Each part has norm 1/sqrt(2); dividing by the computed norm keeps the
    # unit vectors of a diagonal P exact.
    K = np.empty((2 * n, 2 * n))
    K[:, 0::2] = V.imag
    K[:, 1::2] = V.real
    K /= np.linalg.norm(K, axis=0)
    S = (L @ K) * (1.0 / np.sqrt(np.repeat(nus, 2)))
    return WilliamsonForm(S=S, nus=nus)


def symplectic_eigenvalues(P: np.ndarray, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive-definite matrix, descending.

    The top n eigenvalues of the Hermitian ``i L^T Omega L`` that
    :func:`williamson` diagonalises, reversed.
    """
    L, A = _symplectic_hermitian(P, tol)
    n = L.shape[0] // 2
    return np.linalg.eigvalsh(A)[n:][::-1].copy()


def triangularize_offdiagonal(U: np.ndarray, n: int, m: int):
    """Compress the off-diagonal blocks of a unitary into leading triangles.

    For an (n+m)-dimensional unitary ``U`` with ``m >= n``, returns bath-side
    unitaries ``U_m`` and ``V_m`` such that
    ``(1_n + U_m) U (1_n + V_m)`` (direct sums) has its top-right n x m block
    and the transpose of its bottom-left block supported on their leading
    n x n lower-triangular parts.  Both reductions are one-sided QR
    factorizations, so a bath larger than the system never couples more than
    n of its modes to the system.

    Args:
        U: (n+m) x (n+m) unitary, unitary within ``STRUCTURAL_TOL``.
        n: system block size.
        m: bath block size, m >= n.

    Returns:
        Tuple ``(U_m, V_m, U_reduced)``.
    """
    if m < n:
        raise ValueError(f"bath block must be at least as large as system (m={m} < n={n})")
    U = _check_unitary(U, STRUCTURAL_TOL)
    if U.shape[0] != n + m:
        raise ValueError(f"U has dimension {U.shape[0]}, expected n+m={n + m}")

    beta = U[:n, n:]
    gamma_t = U[n:, :n]
    # beta @ V_m becomes lower-triangular-leading: QR of beta^H gives
    # beta = R^H Q^H with R^H in the target shape.
    V_m = np.linalg.qr(beta.conj().T, mode="complete")[0]
    # U_m @ gamma_t becomes upper-triangular (top n x n part): plain QR.
    Q_g = np.linalg.qr(gamma_t, mode="complete")[0]
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


def _nearest_unitary(M: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition of ``M``: the nearest unitary in Frobenius norm."""
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def _small_sine_factors(G: np.ndarray, X_large: np.ndarray):
    """SVD ``G = F diag(s) Q^H`` restricted to the complement of ``X_large``'s columns.

    ``G`` holds the small-sine columns of ``U21 Z^H``; its columns lie in the
    orthogonal complement of the large-sine columns of ``X``, spanned by the
    orthonormal ``N``.  The SVD of ``N^H G`` keeps ``F = N P`` orthogonal to
    ``X_large`` even where a sine vanishes and its left vector is arbitrary.
    """
    N = np.linalg.qr(X_large, mode="complete")[0][:, X_large.shape[1]:]
    P, s, Qh = np.linalg.svd(N.conj().T @ G)
    return N @ P, s, Qh


def cosine_sine_decompose(U: np.ndarray, tol: float = STRUCTURAL_TOL) -> CosineSineForm:
    """Cosine-sine decomposition of a 2n x 2n unitary into the beam-splitter form.

    The angles satisfy ``cos(thetas[j]) = j-th singular value`` of the
    top-left n x n block, so ``thetas`` lies in [0, pi/2] sorted ascending;
    the quadrant freedom is absorbed into the block unitaries.  The factors
    come from SVDs, after Stewart's algorithm: the SVD ``U11 = W C Z`` fixes
    ``W``, ``C`` and ``Z``; each large-sine column (``cos < 1/sqrt 2``) of
    ``X`` is ``-(U21 Z^H)/sin``; the small-sine columns come from an SVD
    restricted to the complement of the large-sine ones, whose right vectors
    re-rotate those rows of ``Z`` and whose singular values are the small
    sines, and ``W`` and the cosines are read again from ``U11 Z^H``.  Each
    row of ``Y`` is ``W^H U12 / sin`` or ``X^H U22 / cos``, whichever divisor
    is larger.  ``W``, ``X``, ``Z`` and ``Y`` are finally projected to the
    nearest unitary.  The residual phase gauge is deterministic but not
    canonicalized.

    Args:
        U: 2n x 2n unitary.
        tol: unitarity tolerance for input validation.

    Returns:
        CosineSineForm whose :meth:`~CosineSineForm.reconstruct` matches ``U``.
    """
    U = _check_unitary(U, tol)
    n = _check_square_even(U, "U")
    U11, U12, U21, U22 = U[:n, :n], U[:n, n:], U[n:, :n], U[n:, n:]

    W, cos, Z = np.linalg.svd(U11)  # cosines descending: small-sine columns first
    G = U21 @ Z.conj().T
    m = int(np.count_nonzero(cos >= np.sqrt(0.5)))
    sin = np.empty(n)
    X = np.empty((n, n), dtype=complex)
    sin[m:] = np.linalg.norm(G[:, m:], axis=0)
    X[:, m:] = -G[:, m:] / sin[m:]
    if m:
        F, s, Qh = _small_sine_factors(G[:, :m], X[:, m:])
        # Reverse to ascending sines, hence ascending angles.
        X[:, :m] = -F[:, ::-1]
        sin[:m] = s[::-1]
        Z[:m] = Qh[::-1] @ Z[:m]
        WC = U11 @ Z[:m].conj().T
        cos[:m] = np.linalg.norm(WC, axis=0)
        W[:, :m] = WC / cos[:m]

    Y = np.where((sin >= cos)[:, None], W.conj().T @ U12, X.conj().T @ U22) / np.maximum(sin, cos)[:, None]
    W, X, Z, Y = map(_nearest_unitary, (W, X, Z, Y))
    return CosineSineForm(W=W, X=X, Z=Z, Y=Y, thetas=np.arctan2(sin, cos))


def build_isotropy_element(multiplicities, blocks) -> np.ndarray:
    """Assemble a passive matrix preserving a sectored harmonic normal form.

    Given per-sector unitary blocks, returns the direct sum of their passive
    representations.  The result ``K`` satisfies ``K Y K^T = Y`` and
    ``[K, Y Omega] = 0`` for every ``Y = direct sum of omega_l 1_{2 d_l}``
    whose sector sizes ``d_l`` match ``multiplicities``, whatever the
    frequencies ``omega_l`` are.

    Args:
        multiplicities: number of modes in each frequency sector.
        blocks: one unitary per sector, with matching dimension, each
            unitary within ``STRUCTURAL_TOL``.

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
        parts.append(unitary_to_passive(block))
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


def random_symplectic(n_modes: int, seed: int) -> np.ndarray:
    """Random symplectic matrix ``K1 @ squeeze @ K2``, deterministic per seed.

    The two passive factors are Haar unitaries in passive representation and
    the middle factor squeezes each mode by a factor drawn log-uniformly from
    [1/2, 2].
    """
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=2)
    K1 = unitary_to_passive(random_unitary(n_modes, int(seeds[0])))
    K2 = unitary_to_passive(random_unitary(n_modes, int(seeds[1])))
    r = rng.uniform(-np.log(2.0), np.log(2.0), size=n_modes)
    stretch = np.empty(2 * n_modes)
    stretch[0::2] = np.exp(r)
    stretch[1::2] = np.exp(-r)
    return K1 @ np.diag(stretch) @ K2
