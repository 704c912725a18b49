"""Gaussian channels and the thermal-operation channel family.

A Gaussian channel acts on covariance matrices as ``sigma -> X sigma X^T + Y``
and on first moments as ``r -> X r + d``.  Thermal-operation channels come in
a normal form: in the frame where the system Hamiltonian is a direct sum of
frequency sectors, each sector independently undergoes passive optics, a
per-mode loss ``cos(theta)`` into a thermal bath at the background
temperature, and passive optics again.  ``oracle_apply`` is the brute-force
alternative used as an oracle: explicit bath modes, a global passive
transformation, and a partial trace by ``dilate_and_trace``.
"""

from dataclasses import dataclass

import numpy as np

from .states import GaussianState, FrequencySpectrum, _check_nu, nu_of, validate_state
from .symplectic import (
    STRUCTURAL_TOL,
    CosineSineForm,
    _check_square_even,
    _check_unitary,
    _is_symmetric,
    _realify,
    block_diag,
    is_passive,
    is_symplectic,
    omega,
    unitary_to_passive,
)

# Positive-semidefiniteness of the complete-positivity matrix is checked more
# loosely than structural identities: it involves eigenvalues of a difference
# of products.
CHANNEL_TOL = 1e-8


def _symplectic_inverse(S: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix, ``Omega S^T Omega^T`` (exact, no solve)."""
    n = S.shape[0] // 2
    Om = omega(n)
    return Om @ S.T @ Om.T


@dataclass
class GaussianChannel:
    """Completely positive Gaussian map ``(X, Y, d)``."""

    X: np.ndarray
    Y: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        dim = 2 * _check_square_even(self.X, "X")
        if self.Y.shape != (dim, dim):
            raise ValueError(f"Y must match X, got {self.Y.shape} vs {self.X.shape}")
        if self.d.shape != (dim,):
            raise ValueError(f"d must have length {dim}, got {self.d.shape}")

    @property
    def n_modes(self) -> int:
        return self.X.shape[0] // 2

    @classmethod
    def identity(cls, n_modes: int) -> "GaussianChannel":
        dim = 2 * n_modes
        return cls(np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))


@dataclass
class GTOSector:
    """One frequency sector of a thermal-operation channel.

    ``Z`` and ``W`` are the pre- and post-loss passive blocks (as unitaries on
    the sector's modes) and ``thetas`` holds one loss angle per mode:
    ``cos(theta) = 1`` leaves the mode alone, ``cos(theta) = 0`` thermalizes
    it completely.
    """

    Z: np.ndarray
    thetas: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=complex)
        self.W = np.asarray(self.W, dtype=complex)
        self.thetas = np.atleast_1d(np.asarray(self.thetas, dtype=float))

    @property
    def n_modes(self) -> int:
        return self.Z.shape[0]


@dataclass
class GTOSpec:
    """Normal-form parametrization of a thermal-operation channel.

    ``spectrum`` fixes the normal-mode frame and frequency sectors of the
    system Hamiltonian, ``beta`` the background inverse temperature, and
    ``sectors`` one :class:`GTOSector` per frequency in spectrum order.
    """

    spectrum: FrequencySpectrum
    beta: float
    sectors: list

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if len(self.sectors) != len(self.spectrum.sectors):
            raise ValueError(
                f"need one sector block per frequency sector "
                f"({len(self.spectrum.sectors)}), got {len(self.sectors)}"
            )
        for gto_sec, freq_sec in zip(self.sectors, self.spectrum.sectors):
            d = freq_sec.multiplicity
            if len(freq_sec.mode_indices) != d:
                raise ValueError(
                    f"multiplicity {d} needs {d} mode_indices, got {freq_sec.mode_indices}"
                )
            _check_unitary(gto_sec.Z, STRUCTURAL_TOL, "Z")
            _check_unitary(gto_sec.W, STRUCTURAL_TOL, "W")
            if gto_sec.Z.shape != (d, d) or gto_sec.W.shape != (d, d):
                raise ValueError(f"sector blocks must be {d}x{d} for multiplicity {d}")
            if gto_sec.thetas.shape != (d,):
                raise ValueError(f"sector needs {d} loss angles, got {gto_sec.thetas.shape}")
        n = self.spectrum.n_modes
        if sorted(i for sec in self.spectrum.sectors for i in sec.mode_indices) != list(range(n)):
            raise ValueError(f"sector mode_indices must partition the modes 0..{n - 1}")
        S = self.spectrum.S
        if S.shape != (2 * n, 2 * n) or not is_symplectic(S):
            raise ValueError(f"spectrum.S must be a {2 * n}x{2 * n} symplectic matrix")


def validate_channel(ch: GaussianChannel, tol: float = CHANNEL_TOL) -> bool:
    """Check complete positivity of a Gaussian map.

    True iff ``X`` and ``d`` are finite, ``Y`` is symmetric and the
    Hermitian matrix ``Y + i Omega - i X Omega X^T`` has smallest eigenvalue
    >= -tol.
    """
    X, Y = ch.X, ch.Y
    if not (np.isfinite(X).all() and np.isfinite(ch.d).all() and _is_symmetric(Y, tol)):
        return False
    Om = omega(ch.n_modes)
    cp = Y + 1j * Om - 1j * X @ Om @ X.T
    return bool(np.linalg.eigvalsh(cp).min() >= -tol)


def gto_to_channel(spec: GTOSpec) -> GaussianChannel:
    """Build the (X, Y) pair of a thermal-operation channel from its normal form.

    In the normal-mode frame each sector contributes
    ``X_l = K(W_l) (cos theta per mode) K(Z_l)`` and
    ``Y_l = K(W_l) (nu_l sin^2 theta per mode) K(W_l)^T`` with
    ``nu_l = nu_of(beta, omega_l)``; conjugating back with the spectrum's
    symplectic gives ``X = S (sum of X_l) S^{-1}`` and
    ``Y = S (sum of Y_l) S^T``.  The displacement is zero.

    The passive map ``K`` is a homomorphism, so the direct sums are formed in
    the n x n complex mode picture: each sector's ``W`` and ``Z`` are scattered
    into block-diagonal unitaries ``Wc``, ``Zc`` on its ``mode_indices``, and
    ``X_nm = K((Wc cos) Zc)``, ``Y_nm = K((Wc nu sin^2) Wc^H)`` are each
    converted to real form once.  ``Wc Wc^H - 1`` is block diagonal with the
    sectors' ``W W^H - 1`` as blocks and exact zeros elsewhere, so one
    unitarity check of ``Wc`` (and of ``Zc``) sees the same largest deviation
    as checking every sector's block.

    Args:
        spec: validated GTOSpec.

    Returns:
        GaussianChannel passing :func:`validate_channel`.
    """
    n = spec.spectrum.n_modes
    Wc = np.zeros((n, n), dtype=complex)
    Zc = np.zeros((n, n), dtype=complex)
    cos = np.empty(n)
    noise = np.empty(n)
    for gto_sec, freq_sec in zip(spec.sectors, spec.spectrum.sectors):
        idx = np.asarray(freq_sec.mode_indices)
        block = np.ix_(idx, idx)
        Wc[block] = gto_sec.W
        Zc[block] = gto_sec.Z
        cos[idx] = np.cos(gto_sec.thetas)
        noise[idx] = nu_of(spec.beta, freq_sec.omega) * np.sin(gto_sec.thetas) ** 2
    _check_unitary(Wc, STRUCTURAL_TOL, "W")
    _check_unitary(Zc, STRUCTURAL_TOL, "Z")
    X_nm = _realify((Wc * cos) @ Zc)
    Y_nm = _realify((Wc * noise) @ Wc.conj().T)

    S = spec.spectrum.S
    S_inv = _symplectic_inverse(S)
    return GaussianChannel(X=S @ X_nm @ S_inv, Y=S @ Y_nm @ S.T, d=np.zeros(2 * n))


def _act(X: np.ndarray, Y: np.ndarray, d: np.ndarray, cm: np.ndarray, r: np.ndarray) -> tuple:
    """Unchecked channel action: ``(X cm X^T + Y`` symmetrised, ``X r + d)``."""
    cm = X @ cm @ X.T + Y
    return 0.5 * (cm + cm.T), X @ r + d


def apply_channel(ch: GaussianChannel, state: GaussianState, tol: float = CHANNEL_TOL) -> GaussianState:
    """Act with a Gaussian channel on a Gaussian state.

    This is the checking entry point: it validates the channel
    (:func:`validate_channel`) and the input state (``validate_state``) on
    every call before doing the algebra.  Loops whose inputs are valid by
    construction, such as ``cooling.run_protocol``, check once at their own
    boundary and then apply the same formula unchecked.

    Args:
        ch: channel, validated before use.
        state: input state, validated before use.
        tol: validity tolerance for both checks.

    Returns:
        GaussianState with ``cm = X cm X^T + Y`` and ``r = X r + d``.
    """
    if ch.n_modes != state.n_modes:
        raise ValueError(
            f"channel acts on {ch.n_modes} modes but state has {state.n_modes}"
        )
    if not validate_channel(ch, tol):
        raise ValueError("channel fails the complete-positivity check")
    if not validate_state(state, tol):
        raise ValueError("input state has an invalid covariance matrix")
    cm, r = _act(ch.X, ch.Y, ch.d, state.cm, state.first_moments)
    return GaussianState(state.n_modes, r, cm)


def _check_bath(nu_b: float, S: np.ndarray | None) -> np.ndarray:
    """Refuse a non-finite or sub-vacuum ``nu_b`` and a ``S`` that is not a
    2x2 symplectic; return ``S`` as a float array (identity when None)."""
    _check_nu(nu_b, "nu_b")
    if S is None:
        return np.eye(2)
    S = np.asarray(S, dtype=float)
    if S.shape != (2, 2) or not is_symplectic(S):
        raise ValueError("S must be a 2x2 symplectic matrix")
    return S


def _single_mode_xy(p: float, phi: float, nu_b: float, S: np.ndarray, S_inv: np.ndarray) -> tuple:
    """Unchecked ``(X, Y)`` of :func:`single_mode_gto`; ``S_inv`` is ``S^{-1}``."""
    c, s = np.cos(phi), np.sin(phi)
    D = np.array([[c, s], [-s, c]])
    return np.sqrt(p) * S @ D @ S_inv, (1.0 - p) * nu_b * S @ S.T


def single_mode_gto(
    p: float, phi: float, nu_b: float, S: np.ndarray | None = None
) -> GaussianChannel:
    """Single-mode thermal-operation channel.

    ``X = sqrt(p) S D_phi S^{-1}`` and ``Y = (1 - p) nu_b S S^T``: with
    probability weight ``p`` the state survives up to a phase rotation in the
    normal-mode frame, and the complement is replaced by the bath.

    Args:
        p: survival weight in [0, 1].
        phi: rotation angle in the normal-mode frame.
        nu_b: bath symplectic eigenvalue, finite and >= 1.
        S: 2x2 symplectic normal-mode matrix (identity when omitted).

    Returns:
        GaussianChannel on one mode.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    S = _check_bath(nu_b, S)
    X, Y = _single_mode_xy(p, phi, nu_b, S, _symplectic_inverse(S))
    return GaussianChannel(X=X, Y=Y, d=np.zeros(2))


def dilate_and_trace(system_cm: np.ndarray, O: np.ndarray, bath_nus) -> np.ndarray:
    """Channel action via an explicit bath: append, transform, and pinch.

    Forms the joint covariance matrix ``system_cm + (direct sum of
    nu_j 1_2)``, applies the passive transformation ``O`` by congruence, and
    returns the leading system block (the partial trace over the bath modes).

    Args:
        system_cm: 2n x 2n system covariance matrix.
        O: passive matrix on n + m modes, checked with :func:`is_passive` at
           ``STRUCTURAL_TOL``.
        bath_nus: m bath symplectic eigenvalues, each finite and
           >= 1 - ``STRUCTURAL_TOL``.

    Returns:
        2n x 2n output covariance matrix.
    """
    system_cm = np.asarray(system_cm, dtype=float)
    bath_nus = np.asarray(bath_nus, dtype=float)
    dim_s = 2 * _check_square_even(system_cm, "system_cm")
    if not np.all((bath_nus >= 1.0 - STRUCTURAL_TOL) & (bath_nus < np.inf)):
        raise ValueError(f"bath symplectic eigenvalues must be finite and not below 1: {bath_nus}")
    if not is_passive(O):
        raise ValueError("O must be a passive (orthogonal symplectic) matrix")
    if O.shape[0] != dim_s + 2 * len(bath_nus):
        raise ValueError(
            f"O has dimension {O.shape[0]}, expected {dim_s + 2 * len(bath_nus)}"
        )
    joint = block_diag(system_cm, np.diag(np.repeat(bath_nus, 2)))
    out = O @ joint @ O.T
    return out[:dim_s, :dim_s]


def oracle_apply(spec: GTOSpec, state: GaussianState) -> GaussianState:
    """Act with a thermal-operation channel through the explicit dilation.

    The independent route to ``apply_channel(gto_to_channel(spec), state)``:
    in the normal-mode frame each sector's system modes are coupled to an
    equal number of bath modes at the sector's thermal eigenvalue through the
    beam-splitter unitary ``(W + 1) [[C, S], [-S, C]] (Z + 1)``, built by
    :meth:`CosineSineForm.reconstruct` with identity bath blocks, and
    :func:`dilate_and_trace` pinches the result back onto the system.

    Args:
        spec: validated GTOSpec.
        state: input state on ``spec.spectrum.n_modes`` modes.

    Returns:
        GaussianState after the channel.
    """
    n = spec.spectrum.n_modes
    S = spec.spectrum.S
    S_inv = _symplectic_inverse(S)
    sigma_nm = S_inv @ state.cm @ S_inv.T
    r_nm = S_inv @ state.first_moments

    O = np.eye(4 * n)
    bath_nus = np.empty(n)
    for gto_sec, freq_sec in zip(spec.sectors, spec.spectrum.sectors):
        bath = np.eye(freq_sec.multiplicity)
        U_l = CosineSineForm(W=gto_sec.W, X=bath, Z=gto_sec.Z, Y=bath, thetas=gto_sec.thetas).reconstruct()
        modes = list(freq_sec.mode_indices) + [n + i for i in freq_sec.mode_indices]
        rows = np.ravel([[2 * m, 2 * m + 1] for m in modes])
        O[np.ix_(rows, rows)] = unitary_to_passive(U_l)
        for i in freq_sec.mode_indices:
            bath_nus[i] = nu_of(spec.beta, freq_sec.omega)

    out_nm = dilate_and_trace(sigma_nm, O, bath_nus)
    r_joint = np.concatenate([r_nm, np.zeros(2 * n)])
    r_out = (O @ r_joint)[: 2 * n]
    return GaussianState(n, S @ r_out, S @ out_nm @ S.T)


def displaced_gto(ch: GaussianChannel, center: np.ndarray) -> GaussianChannel:
    """Recenter a channel on a displaced Hamiltonian.

    Conjugating the channel with displacements to and from ``center`` leaves
    (X, Y) alone and shifts the displacement to ``d + (1 - X) center``, so the
    fixed point moves to the Hamiltonian's center.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != ch.d.shape:
        raise ValueError(f"center must have length {ch.d.shape[0]}, got {center.shape}")
    d = ch.d + (np.eye(ch.X.shape[0]) - ch.X) @ center
    return GaussianChannel(X=ch.X.copy(), Y=ch.Y.copy(), d=d)


def compose(ch2: GaussianChannel, ch1: GaussianChannel) -> GaussianChannel:
    """Channel composition ``ch2 after ch1``.

    ``X = X2 X1``, ``Y = X2 Y1 X2^T + Y2``, ``d = X2 d1 + d2``.
    """
    if ch1.n_modes != ch2.n_modes:
        raise ValueError("cannot compose channels on different mode counts")
    return GaussianChannel(
        X=ch2.X @ ch1.X,
        Y=ch2.X @ ch1.Y @ ch2.X.T + ch2.Y,
        d=ch2.X @ ch1.d + ch2.d,
    )
