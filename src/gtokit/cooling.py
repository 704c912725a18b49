"""Algorithmic-cooling simulation and the entropy floor.

Protocols alternate a single-mode Gaussian unitary with a partial
thermalization channel.  Every such step obeys
``nu_after >= p nu + (1 - p) nu_b``, so no protocol can push the symplectic
eigenvalue (hence the entropy) below ``min(nu_0, nu_b)``: the best options
are shielding the system or thermalizing it completely.  The sideband swap
with a high-frequency thermal ancilla is the permitted way around the floor —
it is a two-mode operation outside the single-mode protocol class.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channels import (
    CHANNEL_TOL,
    _act,
    _check_bath,
    _single_mode_xy,
    _symplectic_inverse,
    dilate_and_trace,
)
from .states import GaussianState, _check_nu, entropy, nu_of, rotation, squeezer, validate_state
from .symplectic import is_symplectic

BOUND_TOL = 1e-9
# A single-mode CM is physical iff cm[0, 0] > 0 and det(cm) = nu^2 >= 1; the
# slack matches the state check ``apply_channel`` makes at CHANNEL_TOL.
_MIN_DET = (1.0 - CHANNEL_TOL) ** 2
_ZERO_2 = np.zeros(2)

# θ = π/2 beam splitter: a full state swap between the two modes.
_SWAP_4 = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
)


@dataclass
class ProtocolStep:
    """One round: a Gaussian unitary followed by a partial thermalization."""

    unitary: np.ndarray
    gto_p: float
    gto_phi: float = 0.0

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=float)
        if self.unitary.shape != (2, 2) or not is_symplectic(self.unitary):
            raise ValueError("step unitary must be a 2x2 symplectic matrix")
        if not 0.0 <= self.gto_p <= 1.0:
            raise ValueError(f"gto_p must lie in [0, 1], got {self.gto_p}")

    @classmethod
    def from_params(cls, squeeze: float, rotate: float, p: float, phi: float = 0.0) -> "ProtocolStep":
        """Build the step unitary as rotation(rotate) @ squeezer(squeeze)."""
        return cls(unitary=rotation(rotate) @ squeezer(squeeze), gto_p=p, gto_phi=phi)


@dataclass
class CoolingTrace:
    """Per-step (nu, entropy) history; entry 0 is the initial state."""

    steps: list
    bound: float
    violated: bool

    @property
    def nus(self) -> np.ndarray:
        return np.array([s[0] for s in self.steps])

    @property
    def entropies(self) -> np.ndarray:
        return np.array([s[1] for s in self.steps])


def _nu_of_det(det: float) -> float:
    return max(math.sqrt(max(det, 0.0)), 1.0)


def _nu_of_cm(cm: np.ndarray) -> float:
    return _nu_of_det(np.linalg.det(cm))


def entropy_lower_bound(nu_0: float, nu_b: float) -> float:
    """Entropy floor for single-mode protocols: ``entropy(min(nu_0, nu_b))``."""
    _check_nu(nu_0, "nu_0")
    _check_nu(nu_b, "nu_b")
    return entropy(min(nu_0, nu_b))


def run_protocol(initial: GaussianState, steps, nu_b: float, S: np.ndarray | None = None) -> CoolingTrace:
    """Run an alternating unitary / partial-thermalization protocol.

    Inputs are checked once, on entry: ``initial`` with ``validate_state``,
    ``nu_b`` and ``S`` as in ``single_mode_gto``; each step's unitary and
    ``p`` were checked when the :class:`ProtocolStep` was built.  A channel
    built from such inputs is completely positive, so each step then only
    applies ``cm -> X cm X^T + Y`` and ``r -> X r + d``, and checks that the
    output is still physical (``cm[0, 0] > 0`` and ``det(cm) >= (1 -
    CHANNEL_TOL)^2``, the single-mode form of ``validate_state``).

    Args:
        initial: single-mode starting state.
        steps: iterable of ProtocolStep.
        nu_b: bath symplectic eigenvalue shared by all thermalization steps.
        S: normal-mode symplectic of the thermalization channel (identity
           when omitted).

    Returns:
        CoolingTrace with the entropy floor ``entropy(min(nu_0, nu_b))`` and
        a ``violated`` flag (an entropy more than ``BOUND_TOL`` below the
        floor) that stays False on every physical run.

    Raises:
        ValueError: on invalid input; if step k's output covariance matrix
            or its determinant overflows ("protocol step k overflows", with
            no numpy warning); or if rounding makes a step's output
            unphysical ("input state has an invalid covariance matrix").
    """
    if initial.n_modes != 1:
        raise ValueError("cooling protocols act on a single mode")
    if not validate_state(initial):
        raise ValueError("initial state has an invalid covariance matrix")
    S = _check_bath(nu_b, S)
    S_inv = _symplectic_inverse(S)
    cm = initial.cm
    r = initial.first_moments

    nu_0 = _nu_of_cm(cm)
    bound = entropy_lower_bound(nu_0, nu_b)
    trace = [(nu_0, entropy(nu_0))]
    # An overflowing step is told apart only once a step has failed, so the
    # arithmetic warnings it raises on the way there are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for step in steps:
                U = step.unitary
                X, Y = _single_mode_xy(step.gto_p, step.gto_phi, nu_b, S, S_inv)
                cm, r = _act(X, Y, _ZERO_2, U @ cm @ U.T, U @ r)
                det = np.linalg.det(cm)
                if not (cm[0, 0] > 0.0 and det >= _MIN_DET):
                    raise ValueError("input state has an invalid covariance matrix")
                nu = _nu_of_det(det)
                trace.append((nu, entropy(nu)))
        except ValueError:
            if np.isfinite(cm).all() and np.isfinite(np.linalg.det(cm)):
                raise
            raise ValueError(
                f"protocol step {len(trace)} overflows: its output covariance matrix "
                "or that matrix's determinant is not finite"
            ) from None

    violated = bool(any(ent < bound - BOUND_TOL for _, ent in trace))
    return CoolingTrace(steps=trace, bound=bound, violated=violated)


def greedy_adversary(
    nu_0: float, nu_b: float, n_steps: int, search_grid: int = 16
) -> CoolingTrace:
    """Adversarial protocol search trying to beat the entropy floor.

    Each round searches a grid of step parameters — squeeze factor
    (``search_grid`` points log-spaced in [1, 10]), pre-squeeze rotation
    (32 points in [0, pi)) and channel weight p (64 points in [0, 1]) — and
    applies the combination minimizing the post-step symplectic eigenvalue.
    Rotations after the squeeze and the channel phase are omitted: neither
    changes the output eigenvalue.

    The search is exact: it picks the full grid's first ``argmin`` of
    ``f_p(t) = (p^2 det(cm) + p q t) + q^2``, with ``q = (1 - p) nu_b`` and
    ``t = tr(U cm U^T)``.  As ``p q >= 0`` and each operation is correctly
    rounded, ``f_p`` is monotone non-decreasing in ``t``, so the first
    minimizing p is found at the smallest ``t`` alone, and the unitary is the
    first minimizer of that p's row.  At ``p = 1`` the row is constant: all
    unitaries tie exactly, and ``argmin`` keeps the first, the identity.

    Args:
        nu_0: initial symplectic eigenvalue (state starts unsqueezed).
        nu_b: bath symplectic eigenvalue.
        n_steps: number of adversarial rounds, an integer >= 1.
        search_grid: resolution of the squeeze-factor grid, an integer >= 1.

    Returns:
        CoolingTrace of the greedy protocol.
    """
    for value, name in ((n_steps, "n_steps"), (search_grid, "search_grid")):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    bound = entropy_lower_bound(nu_0, nu_b)

    zs = np.logspace(0.0, 1.0, search_grid)
    phis = np.linspace(0.0, np.pi, 32, endpoint=False)
    ps = np.linspace(0.0, 1.0, 64)
    eye = np.eye(2)

    cm = nu_0 * eye
    nu_now = _nu_of_cm(cm)
    trace = [(nu_now, entropy(nu_now))]
    cos, sin = np.cos(phis), np.sin(phis)
    z2 = zs[:, None] ** 2
    q = (1.0 - ps) * nu_b
    pp, pq, qq = ps * ps, ps * q, q * q
    for _ in range(n_steps):
        a, b, c = cm[0, 0], cm[0, 1], cm[1, 1]
        # Rotate by phi, then squeeze by z: diagonal entries of U cm U^T.
        a_r = cos**2 * a + 2.0 * cos * sin * b + sin**2 * c
        c_r = sin**2 * a - 2.0 * cos * sin * b + cos**2 * c
        tr_s = z2 * a_r[None, :] + c_r[None, :] / z2
        # det of p * U cm U^T + q * identity; det(U cm U^T) = det(cm).
        det_cm = a * c - b * b
        k_p = np.argmin(pp * det_cm + pq * tr_s.min() + qq)
        row = pp[k_p] * det_cm + pq[k_p] * tr_s + qq[k_p]
        k_z, k_phi = np.unravel_index(np.argmin(row), row.shape)
        U = squeezer(float(zs[k_z])) @ rotation(float(phis[k_phi]))
        X, Y = _single_mode_xy(float(ps[k_p]), 0.0, nu_b, eye, eye)
        cm, _ = _act(X, Y, _ZERO_2, U @ cm @ U.T, _ZERO_2)
        nu_now = _nu_of_cm(cm)
        trace.append((nu_now, entropy(nu_now)))

    violated = bool(any(ent < bound - BOUND_TOL for _, ent in trace))
    return CoolingTrace(steps=trace, bound=bound, violated=violated)


def sideband_swap(
    system: GaussianState, beta: float, omega_ancilla: float
) -> tuple:
    """Cool by swapping in a high-frequency thermal ancilla.

    Appends an ancilla mode in the thermal state of frequency
    ``omega_ancilla`` at inverse temperature ``beta`` and exchanges it with
    the system through a full-swap beam splitter.  The achieved symplectic
    eigenvalue is ``nu_of(beta, omega_ancilla)``, which tends to 1 as the
    ancilla frequency grows — this two-mode route is how cooling below the
    single-mode floor is actually done.

    Args:
        system: single-mode state to cool, checked with ``validate_state``.
        beta: inverse temperature of the ancilla.
        omega_ancilla: ancilla frequency, > 0.

    Returns:
        (cooled GaussianState, achieved symplectic eigenvalue).
    """
    if system.n_modes != 1:
        raise ValueError("sideband swap cools a single system mode")
    if not validate_state(system):
        raise ValueError("initial state has an invalid covariance matrix")
    nu_a = nu_of(beta, omega_ancilla)
    out_cm = dilate_and_trace(system.cm, _SWAP_4, [nu_a])
    out = GaussianState(1, np.zeros(2), out_cm)
    return out, _nu_of_cm(out_cm)
