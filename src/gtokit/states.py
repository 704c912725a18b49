"""Gaussian states: covariance matrices, thermal construction, entropy.

Units are hbar = k_B = 1 and the vacuum covariance matrix is the identity,
so symplectic eigenvalues of physical states satisfy nu >= 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .symplectic import (
    STRUCTURAL_TOL,
    _check_spd,
    _is_symmetric,
    symplectic_eigenvalues,
    williamson,
)

DEFAULT_FREQ_TOL = 1e-9


def rotation(phi: float) -> np.ndarray:
    """Single-mode phase-space rotation [[cos, sin], [-sin, cos]]."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]])


def squeezer(z: float) -> np.ndarray:
    """Single-mode symplectic diag(z, 1/z)."""
    if z <= 0:
        raise ValueError("squeeze factor must be positive")
    return np.diag([z, 1.0 / z])


@dataclass
class GaussianState:
    """First moments and covariance matrix of an n-mode Gaussian state."""

    n_modes: int
    first_moments: np.ndarray
    cm: np.ndarray

    def __post_init__(self):
        self.first_moments = np.asarray(self.first_moments, dtype=float)
        self.cm = np.asarray(self.cm, dtype=float)
        d = 2 * self.n_modes
        if self.first_moments.shape != (d,):
            raise ValueError(
                f"first_moments must have length {d}, got {self.first_moments.shape}"
            )
        if self.cm.shape != (d, d):
            raise ValueError(f"cm must be {d}x{d}, got {self.cm.shape}")

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        return cls(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


@dataclass(frozen=True)
class SingleModeNormalForm:
    """Rotated squeezed thermal parametrization of a single-mode CM.

    The covariance matrix is ``nu * D_phi diag(z, 1/z) D_phi^T`` with
    nu >= 1, z >= 1 and phi in [0, pi).
    """

    nu: float
    z: float
    phi: float

    def to_cm(self) -> np.ndarray:
        D = rotation(self.phi)
        return self.nu * D @ np.diag([self.z, 1.0 / self.z]) @ D.T


@dataclass
class HamiltonianSpec:
    """Quadratic Hamiltonian ``(r - center)^T H (r - center) / 2`` with H > 0."""

    H: np.ndarray
    center: np.ndarray | None = None

    def __post_init__(self):
        self.H = _check_spd(np.asarray(self.H, dtype=float), STRUCTURAL_TOL, "H")
        d = self.H.shape[0]
        if self.center is None:
            self.center = np.zeros(d)
        self.center = np.asarray(self.center, dtype=float)
        if self.center.shape != (d,):
            raise ValueError(f"center must have length {d}, got {self.center.shape}")

    @property
    def n_modes(self) -> int:
        return self.H.shape[0] // 2


@dataclass(frozen=True)
class FrequencySector:
    """One eigenfrequency of the system Hamiltonian with its degenerate modes."""

    omega: float
    multiplicity: int
    mode_indices: tuple


@dataclass(frozen=True)
class FrequencySpectrum:
    """Normal-mode data of a Hamiltonian matrix: ``S^{-1} H S^{-T}`` is
    the direct sum of ``omega_l 1_{2 n_l}`` over the sectors."""

    S: np.ndarray
    sectors: tuple

    @property
    def n_modes(self) -> int:
        return sum(sec.multiplicity for sec in self.sectors)

    @property
    def frequencies(self) -> np.ndarray:
        """Per-mode frequency in normal-mode order."""
        out = np.empty(self.n_modes)
        for sec in self.sectors:
            for idx in sec.mode_indices:
                out[idx] = sec.omega
        return out


def _physical_spectrum(state: GaussianState, tol: float) -> np.ndarray | None:
    """Symplectic eigenvalues of a physical state's covariance matrix, else None.

    The one computation behind :func:`validate_state` and the ``validate``
    report: None when the first moments are not finite,
    ``symplectic_eigenvalues(cm, tol)`` refuses ``cm``, or the smallest
    eigenvalue is below ``1 - tol``.
    """
    if state.cm.shape != (2 * state.n_modes, 2 * state.n_modes):
        raise ValueError("covariance matrix shape does not match n_modes")
    if not np.isfinite(state.first_moments).all():
        return None
    try:
        nus = symplectic_eigenvalues(state.cm, tol)
    except ValueError:
        return None
    return nus if nus.min() >= 1.0 - tol else None


def validate_state(state: GaussianState, tol: float = STRUCTURAL_TOL) -> bool:
    """Check that the covariance matrix describes a physical Gaussian state.

    True iff the first moments are finite, ``symplectic_eigenvalues(cm, tol)``
    accepts ``cm`` (finite, symmetric within ``tol``, positive definite), and
    the smallest symplectic eigenvalue is at least ``1 - tol`` (the uncertainty bound).
    """
    return _physical_spectrum(state, tol) is not None


def _check_nu(value: float, name: str) -> None:
    """Refuse a symplectic eigenvalue (or squeezing factor) that is NaN, infinite or below 1."""
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 1, got {value}")


def nu_of(beta: float, omega: float) -> float:
    """Thermal symplectic eigenvalue ``(e^{beta omega} + 1) / (e^{beta omega} - 1)``.

    Evaluated as ``1 / tanh(beta omega / 2)`` for overflow-free behaviour at
    large ``beta omega``; tends to 1 in the ground-state limit.
    """
    if not (beta > 0 and omega > 0):
        raise ValueError("beta and omega must be positive")
    return 1.0 / math.tanh(0.5 * beta * omega)


def normal_mode_spectrum(ham: HamiltonianSpec) -> FrequencySpectrum:
    """Decompose a Hamiltonian matrix into frequency sectors.

    Williamson-decomposes ``H`` and groups normal-mode frequencies that agree
    within relative tolerance ``DEFAULT_FREQ_TOL`` into degenerate sectors;
    the sector frequency is the group mean.
    """
    form = williamson(ham.H)
    freqs = form.nus  # descending
    sectors = []
    start = 0
    for j in range(1, len(freqs) + 1):
        if j == len(freqs) or abs(freqs[j] - freqs[start]) > DEFAULT_FREQ_TOL * abs(freqs[start]):
            group = freqs[start:j]
            sectors.append(
                FrequencySector(
                    omega=float(group.mean()),
                    multiplicity=j - start,
                    mode_indices=tuple(range(start, j)),
                )
            )
            start = j
    return FrequencySpectrum(S=form.S, sectors=tuple(sectors))


def thermal_state(beta: float, ham: HamiltonianSpec) -> GaussianState:
    """Gibbs state of a quadratic Hamiltonian at inverse temperature ``beta``.

    The covariance matrix is ``S (direct sum of nu_of(beta, omega_l) 1) S^T``
    in the Hamiltonian's normal-mode frame; first moments sit at the
    Hamiltonian center.  ``beta = inf`` gives the ground state.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    spectrum = normal_mode_spectrum(ham)
    nus = np.array(
        [1.0 if math.isinf(beta) else nu_of(beta, w) for w in spectrum.frequencies]
    )
    cm = spectrum.S @ np.diag(np.repeat(nus, 2)) @ spectrum.S.T
    return GaussianState(ham.n_modes, ham.center.copy(), cm)


def single_mode_decompose(cm: np.ndarray, tol: float = STRUCTURAL_TOL) -> SingleModeNormalForm:
    """Extract (nu, z, phi) from a single-mode covariance matrix.

    ``nu = sqrt(det cm)``, ``z >= 1`` is the principal-axis ratio and
    ``phi`` in [0, pi) orients the long axis; ``phi = 0`` when z = 1.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (2, 2):
        raise ValueError(f"expected a 2x2 covariance matrix, got {cm.shape}")
    if not _is_symmetric(cm, tol):
        raise ValueError("covariance matrix must be symmetric")
    det = float(np.linalg.det(cm))
    if det <= 0 or cm[0, 0] <= 0:
        raise ValueError("covariance matrix must be positive definite")
    nu = math.sqrt(det)
    if nu < 1.0 - tol:
        raise ValueError(f"not a physical state: symplectic eigenvalue {nu} < 1")

    evals, evecs = np.linalg.eigh(0.5 * (cm + cm.T))
    z = math.sqrt(evals[1] / evals[0])
    if z <= 1.0 + tol:
        return SingleModeNormalForm(nu=nu, z=max(z, 1.0), phi=0.0)
    # Long axis of nu D_phi diag(z, 1/z) D_phi^T is (cos phi, -sin phi).
    v = evecs[:, 1]
    phi = math.atan2(-v[1], v[0]) % math.pi
    return SingleModeNormalForm(nu=nu, z=z, phi=phi)


def entropy(nu: float) -> float:
    """Von Neumann entropy (nats) of a mode with symplectic eigenvalue ``nu``.

    ``(nu+1)/2 ln((nu+1)/2) - (nu-1)/2 ln((nu-1)/2)``; zero for pure states.
    """
    _check_nu(nu, "nu")
    up = 0.5 * (nu + 1.0)
    dn = 0.5 * (nu - 1.0)
    if dn == 0.0:
        return 0.0
    return up * math.log(up) - dn * math.log(dn)


def free_energy(nu: float, z: float, beta: float, omega: float) -> float:
    """Single-mode free energy at inverse temperature ``beta``.

    ``F = omega nu (z + 1/z) / 4 - entropy(nu) / beta``.  At z = 1 and fixed
    (beta, omega) the minimum over nu sits at the bath value
    ``nu_of(beta, omega)``.
    """
    _check_nu(z, "z")
    if not (beta > 0 and omega > 0):
        raise ValueError("beta and omega must be positive")
    return 0.25 * omega * nu * (z + 1.0 / z) - entropy(nu) / beta
