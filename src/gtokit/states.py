"""Gaussian states: covariance matrices, thermal construction, entropy.

Units are hbar = k_B = 1 and the vacuum covariance matrix is the identity,
so symplectic eigenvalues of physical states satisfy nu >= 1.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .scalar import STRUCTURAL_TOL, _check_nu, _check_squeeze, _det_split, entropy, nu_of
from .symplectic import (
    WilliamsonForm,
    _check_finite,
    _check_spd,
    _williamson,
    omega,
    symplectic_eigenvalues,
)

DEFAULT_FREQ_TOL = 1e-9


def rotation(phi: float) -> np.ndarray:
    """Single-mode phase-space rotation [[cos, sin], [-sin, cos]]."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]])


def squeezer(z: float) -> np.ndarray:
    """Single-mode symplectic diag(z, 1/z)."""
    _check_squeeze(z)
    return np.diag([z, 1.0 / z])


class _Frozen:
    """Base of the frozen dataclasses that check their fields on construction.
    Copies and pickles go through the constructor too (``__reduce__``): the
    default protocols would hand back writable arrays."""

    def _store(self, name: str, value, dtype=float) -> np.ndarray:
        """Store a read-only ``dtype`` copy of ``value`` as field ``name``, and return it."""
        arr = np.array(value, dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)
        return arr

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class GaussianState(_Frozen):
    """First moments and covariance matrix of an n-mode Gaussian state.

    Both must be finite; physicality is :func:`validate_state`'s question.
    """

    n_modes: int
    first_moments: np.ndarray
    cm: np.ndarray

    def __post_init__(self):
        r = _check_finite(self._store("first_moments", self.first_moments), "first_moments")
        cm = _check_finite(self._store("cm", self.cm), "cm")
        d = 2 * self.n_modes
        if r.shape != (d,):
            raise ValueError(f"first_moments must have length {d}, got {r.shape}")
        if cm.shape != (d, d):
            raise ValueError(f"cm must be {d}x{d}, got {cm.shape}")

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


@dataclass(frozen=True)
class HamiltonianSpec(_Frozen):
    """Quadratic Hamiltonian ``(r - center)^T H (r - center) / 2`` with H > 0.

    The constructor also computes the normal-mode spectrum, once, from the
    Cholesky factor that proves ``H`` positive definite; it is held outside
    the fields, and :func:`normal_mode_spectrum` returns it.
    """

    H: np.ndarray
    center: np.ndarray | None = None

    def __post_init__(self):
        H, L = _check_spd(self.H, STRUCTURAL_TOL, "H")
        d = self._store("H", H).shape[0]
        center = self._store("center", np.zeros(d) if self.center is None else self.center)
        _check_finite(center, "center")
        if center.shape != (d,):
            raise ValueError(f"center must have length {d}, got {center.shape}")
        object.__setattr__(self, "_spectrum", _frequency_spectrum(_williamson(L)))

    @property
    def n_modes(self) -> int:
        return self.H.shape[0] // 2


@dataclass(frozen=True)
class FrequencySector:
    """One eigenfrequency of the system Hamiltonian with its degenerate modes."""

    omega: float
    multiplicity: int
    mode_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "mode_indices", tuple(self.mode_indices))


@dataclass(frozen=True)
class FrequencySpectrum(_Frozen):
    """Normal-mode data of ``H = S diag(omega) S^T``: ``S^{-1} H S^{-T}`` is the
    direct sum of ``omega_l 1_{2 n_l}`` over the sectors, and the normal
    coordinates are ``S^T r``."""

    S: np.ndarray
    sectors: tuple

    def __post_init__(self):
        self._store("S", self.S)
        object.__setattr__(self, "sectors", tuple(self.sectors))

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


def _lab_frame(S: np.ndarray) -> np.ndarray:
    """``F = S^{-T} = Omega S Omega^T`` (exact, no solve): normal coordinates
    ``x = S^T r`` go back to ``r = F x``, and ``sigma_nm`` to ``F sigma_nm F^T``."""
    Om = omega(S.shape[0] // 2)
    return Om @ S @ Om.T


def _physical_spectrum(state: GaussianState, tol: float) -> np.ndarray | None:
    """Symplectic eigenvalues of a physical state's covariance matrix, else None.

    The one computation behind :func:`validate_state` and the ``validate``
    report: None when ``symplectic_eigenvalues(cm, tol)`` refuses ``cm`` or the
    smallest eigenvalue is below ``1 - tol``.  A ``numpy.linalg.LinAlgError``
    is a failure of the computation, not a refusal, and propagates.
    """
    try:
        nus = symplectic_eigenvalues(state.cm, tol)
    except np.linalg.LinAlgError:
        raise
    except ValueError:
        return None
    return nus if nus.min() >= 1.0 - tol else None


def validate_state(state: GaussianState, tol: float = STRUCTURAL_TOL) -> bool:
    """Check that the covariance matrix describes a physical Gaussian state.

    True iff ``symplectic_eigenvalues(cm, tol)`` accepts ``cm`` (symmetric
    within ``tol``, and positive definite: its Cholesky factorisation
    succeeds) and the smallest symplectic eigenvalue is at least ``1 - tol``
    (the uncertainty bound).  One Cholesky factorisation and one Hermitian
    eigenvalue problem, both of size 2n, decide it.
    """
    return _physical_spectrum(state, tol) is not None


def normal_mode_spectrum(ham: HamiltonianSpec) -> FrequencySpectrum:
    """Frequency sectors of a Hamiltonian, as its constructor computed them.

    ``H``'s Williamson form, with normal-mode frequencies that agree within
    relative tolerance ``DEFAULT_FREQ_TOL`` grouped into degenerate sectors;
    the sector frequency is the group mean.  Nothing is recomputed: the
    spectrum of a frozen ``HamiltonianSpec`` cannot change.
    """
    return ham._spectrum


def _frequency_spectrum(form: WilliamsonForm) -> FrequencySpectrum:
    """Group the Williamson frequencies of ``H`` into sectors (:func:`normal_mode_spectrum`)."""
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

    The covariance matrix is ``F (direct sum of nu_of(beta, omega_l) 1) F^T``
    with ``F = S^{-T}`` for the normal-mode frame ``S`` of
    :func:`normal_mode_spectrum`, which the Hamiltonian holds, so no
    matrix is factorised here; first moments sit at the Hamiltonian center.
    ``beta = inf`` gives the ground state.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    spectrum = normal_mode_spectrum(ham)
    nus = np.array(
        [1.0 if math.isinf(beta) else nu_of(beta, w) for w in spectrum.frequencies]
    )
    F = _lab_frame(spectrum.S)
    cm = F @ np.diag(np.repeat(nus, 2)) @ F.T
    return GaussianState(ham.n_modes, ham.center, cm)


def single_mode_decompose(cm: np.ndarray, tol: float = STRUCTURAL_TOL) -> SingleModeNormalForm:
    """Extract (nu, z, phi) from a single-mode covariance matrix.

    ``nu = sqrt(det cm)``, ``z >= 1`` is the principal-axis ratio and
    ``phi`` in [0, pi) orients the long axis; ``phi = 0`` when z = 1.

    In closed form on the entries ``[[a, b], [b, c]]`` (``b`` the mean of
    the two off-diagonal entries): ``det = ac - b^2`` with error-free
    products, so ``nu`` keeps its digits under strong squeezing;
    ``z = lambda_+ / nu`` with ``lambda_+ = (a+c)/2 + hypot((a-c)/2, b)``;
    ``phi = atan2(-b, (a-c)/2) / 2 mod pi``.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (2, 2):
        raise ValueError(f"expected a 2x2 covariance matrix, got {cm.shape}")
    a, b, b_t, c = cm.ravel().tolist()
    m = max(abs(a), abs(b), abs(b_t), abs(c))
    # _is_symmetric's rule on scalars: ``a - a`` and ``c - c`` are the
    # diagonal of cm - cm^T, NaN for a NaN or infinite entry.
    if not (abs(b - b_t) <= tol * max(1.0, m) and a - a == 0.0 == c - c):
        raise ValueError("covariance matrix must be symmetric")
    b = 0.5 * b + 0.5 * b_t
    det, e_det = _det_split(a, b, c)
    if not (det > 0.0 and a > 0.0):  # a NaN det is refused too
        raise ValueError("covariance matrix must be positive definite")
    # nu = root 2^h: sqrt halves an even exponent exactly, and nothing under- or overflows.
    h = e_det // 2
    root = math.sqrt(math.ldexp(det, e_det - 2 * h))
    nu = math.ldexp(root, h)
    if nu < 1.0 - tol:
        raise ValueError(f"not a physical state: symplectic eigenvalue {nu} < 1")

    # An exact power-of-two scale keeps lambda_+ in range.
    e = math.frexp(m)[1]
    a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    half_diff = 0.5 * (a - c)
    z = math.ldexp((0.5 * (a + c) + math.hypot(half_diff, b)) / root, e - h)
    if z <= 1.0 + tol:
        return SingleModeNormalForm(nu=nu, z=max(z, 1.0), phi=0.0)
    # nu D_phi diag(z, 1/z) D_phi^T has (a - c)/2 = k cos 2 phi and b = -k sin 2 phi, k > 0.
    phi = 0.5 * math.atan2(-b, half_diff) % math.pi
    return SingleModeNormalForm(nu=nu, z=z, phi=phi if phi < math.pi else 0.0)


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
