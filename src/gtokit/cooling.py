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

from .channels import CHANNEL_TOL, dilate_and_trace
from .states import GaussianState, _check_nu, entropy, nu_of, validate_state
from .symplectic import is_symplectic

BOUND_TOL = 1e-9
# A single-mode CM is physical iff cm[0, 0] > 0 and det(cm) = nu^2 >= 1; the
# slack matches the state check ``apply_channel`` makes at CHANNEL_TOL.
_MIN_DET = (1.0 - CHANNEL_TOL) ** 2

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
        """Build the step unitary as rotation(rotate) @ squeezer(squeeze),
        written entry by entry."""
        if squeeze <= 0:
            raise ValueError("squeeze factor must be positive")
        c, s, inv = math.cos(rotate), math.sin(rotate), 1.0 / squeeze
        return cls(unitary=np.array([[c * squeeze, s * inv], [-s * squeeze, c * inv]]), gto_p=p, gto_phi=phi)


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


def _mul(A: tuple, B: tuple) -> tuple:
    """Product of two 2x2 matrices, each given row by row as four floats."""
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _gto_step(a: float, b: float, c: float, det: float, M: tuple, det_m: float, p: float, q: float) -> tuple:
    """One single-mode step ``cm -> p M cm M^T + q 1`` on Python floats.

    ``cm = [[a, b], [b, c]]`` has determinant ``det``, and ``M = (m00, m01,
    m10, m11)``, row by row, has determinant ``det_m``.  Returns the output's
    ``(a, b, c, det)``.  With ``A = M cm M^T`` the determinant is
    ``det(p A + q 1) = p^2 det_m^2 det + p q tr(A) + q^2``: for ``p``,
    ``q >= 0`` every term is non-negative, so nothing cancels at any
    conditioning, where ``a c - b^2`` loses every digit near ``1/eps``.
    """
    m00, m01, m10, m11 = M
    t00, t01 = m00 * a + m01 * b, m00 * b + m01 * c
    t10, t11 = m10 * a + m11 * b, m10 * b + m11 * c
    a_m, c_m = t00 * m00 + t01 * m01, t10 * m10 + t11 * m11
    return (
        p * a_m + q,
        p * (t00 * m10 + t01 * m11),
        p * c_m + q,
        p * p * (det_m * det_m * det) + p * q * (a_m + c_m) + q * q,
    )


def entropy_lower_bound(nu_0: float, nu_b: float) -> float:
    """Entropy floor for single-mode protocols: ``entropy(min(nu_0, nu_b))``."""
    _check_nu(nu_0, "nu_0")
    _check_nu(nu_b, "nu_b")
    return entropy(min(nu_0, nu_b))


def run_protocol(initial: GaussianState, steps, nu_b: float) -> CoolingTrace:
    """Run an alternating unitary / partial-thermalization protocol.

    Inputs are checked once, on entry: ``initial`` with ``validate_state``,
    ``nu_b`` as in ``single_mode_gto``; each step's unitary and ``p`` were
    checked when the :class:`ProtocolStep` was built.  A step with unitary
    ``U`` followed by ``single_mode_gto(p, phi, nu_b)`` is
    ``cm -> p M cm M^T + q 1`` with ``M = D_phi U`` and ``q = (1 - p) nu_b``.
    Each step carries the entries of ``cm`` and its determinant in closed
    form (``det M = det U``), and checks that the output is still physical
    (``cm[0, 0] > 0`` and ``det >= (1 - CHANNEL_TOL)^2``, the single-mode
    form of ``validate_state``).  First moments do not enter the trace and
    are not carried.

    Args:
        initial: single-mode starting state.
        steps: iterable of ProtocolStep.
        nu_b: bath symplectic eigenvalue shared by all thermalization steps.

    Returns:
        CoolingTrace with the entropy floor ``entropy(min(nu_0, nu_b))`` and
        a ``violated`` flag (an entropy more than ``BOUND_TOL`` below the
        floor) that stays False on every physical run.

    Raises:
        ValueError: on invalid input; if step k's output covariance matrix
            or its determinant overflows ("protocol step k overflows"); or if
            a step's output is unphysical, as after a unitary that is not
            symplectic was assigned to a built step ("input state has an
            invalid covariance matrix").
    """
    if initial.n_modes != 1:
        raise ValueError("cooling protocols act on a single mode")
    if not validate_state(initial):
        raise ValueError("initial state has an invalid covariance matrix")
    _check_nu(nu_b, "nu_b")
    nu_b = float(nu_b)  # with p, keeps the steps on Python floats, which never warn
    (a, b), (_, c) = initial.cm.tolist()
    det = float(np.linalg.det(initial.cm))

    nu_0 = _nu_of_det(det)
    bound = entropy_lower_bound(nu_0, nu_b)
    trace = [(nu_0, entropy(nu_0))]
    for step in steps:
        U = step.unitary.ravel().tolist()
        co, si = math.cos(step.gto_phi), math.sin(step.gto_phi)
        M = _mul((co, si, -si, co), U)
        p = float(step.gto_p)
        a, b, c, det = _gto_step(a, b, c, det, M, U[0] * U[3] - U[1] * U[2], p, (1.0 - p) * nu_b)
        if not (a > 0.0 and _MIN_DET <= det < math.inf):
            if all(map(math.isfinite, (a, b, c, det))):
                raise ValueError("input state has an invalid covariance matrix")
            raise ValueError(
                f"protocol step {len(trace)} overflows: its output covariance matrix "
                "or that matrix's determinant is not finite"
            )
        nu = _nu_of_det(det)
        trace.append((nu, entropy(nu)))

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
    ``f_p(t) = (p^2 det + p q t) + q^2``, with ``q = (1 - p) nu_b``,
    ``t = tr(U cm U^T)`` and ``det`` the determinant carried by the step
    kernel, which then applies the chosen step.  As ``p q >= 0`` and each
    operation is correctly rounded, ``f_p`` is monotone non-decreasing in
    ``t``, so the first minimizing p is found at the smallest ``t`` alone,
    and the unitary is the first minimizer of that p's row.  At ``p = 1``
    the row is constant: all unitaries tie exactly, and ``argmin`` keeps the
    first, the identity.

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

    a, b, c = float(nu_0), 0.0, float(nu_0)
    det = a * c
    nu_now = _nu_of_det(det)
    trace = [(nu_now, entropy(nu_now))]
    cos, sin = np.cos(phis), np.sin(phis)
    cos2, sin2, cs2 = cos**2, sin**2, 2.0 * cos * sin
    z2 = zs[:, None] ** 2
    q = (1.0 - ps) * nu_b
    pp, pq, qq = ps * ps, ps * q, q * q
    for _ in range(n_steps):
        # Rotate by phi, then squeeze by z: diagonal entries of U cm U^T.
        a_r = cos2 * a + cs2 * b + sin2 * c
        c_r = sin2 * a - cs2 * b + cos2 * c
        tr_s = z2 * a_r[None, :] + c_r[None, :] / z2
        # det of p * U cm U^T + q * identity; det(U cm U^T) = det(cm).
        k_p = np.argmin(pp * det + pq * tr_s.min() + qq)
        row = pp[k_p] * det + pq[k_p] * tr_s + qq[k_p]
        k_z, k_phi = divmod(int(np.argmin(row)), len(phis))
        z, co, si, p = float(zs[k_z]), float(cos[k_phi]), float(sin[k_phi]), float(ps[k_p])
        M = _mul((z, 0.0, 0.0, 1.0 / z), (co, si, -si, co))  # squeezer(z) @ rotation(phi)
        a, b, c, det = _gto_step(a, b, c, det, M, M[0] * M[3] - M[1] * M[2], p, (1.0 - p) * nu_b)
        nu_now = _nu_of_det(det)
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
