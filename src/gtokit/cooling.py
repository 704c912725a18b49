"""Algorithmic-cooling simulation and the entropy floor.

Protocols alternate a single-mode Gaussian unitary with a partial
thermalization channel.  Every such step obeys
``nu_after >= p nu + (1 - p) nu_b``, so no protocol can push the symplectic
eigenvalue (hence the entropy) below ``min(nu_0, nu_b)``: the best options
are shielding the system or thermalizing it completely.  The sideband swap
with a high-frequency thermal ancilla is the permitted way around the floor —
it is a two-mode operation outside the single-mode protocol class.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .channels import dilate_and_trace
from .scalar import (
    _breaks_floor,
    _check_step,
    _det,
    _gto_step,
    _mul,
    _nu_of_det,
    _step_entries,
    entropy,
    entropy_lower_bound,
    nu_of,
    protocol_trace,
)
from .states import GaussianState, _Frozen, validate_state

# θ = π/2 beam splitter: a full state swap between the two modes.
_SWAP_4 = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
)


@dataclass(frozen=True)
class ProtocolStep(_Frozen):
    """One round: a Gaussian unitary followed by a partial thermalization."""

    unitary: np.ndarray
    gto_p: float
    gto_phi: float = 0.0

    def __post_init__(self):
        U = self._store("unitary", self.unitary)
        _check_step(tuple(U.ravel().tolist()) if U.shape == (2, 2) else (), self.gto_p)

    @classmethod
    def from_params(cls, squeeze: float, rotate: float, p: float, phi: float = 0.0) -> "ProtocolStep":
        """Build the step unitary as rotation(rotate) @ squeezer(squeeze),
        written entry by entry."""
        u00, u01, u10, u11 = _step_entries(squeeze, rotate)
        return cls(unitary=((u00, u01), (u10, u11)), gto_p=p, gto_phi=phi)


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


def run_protocol(initial: GaussianState, steps, nu_b: float) -> CoolingTrace:
    """Run an alternating unitary / partial-thermalization protocol.

    ``initial`` is checked with ``validate_state``; each step's unitary and
    ``p`` were checked when the :class:`ProtocolStep` was built.  The run
    itself is :func:`gtokit.scalar.protocol_trace` on the entries of the
    initial covariance matrix: a step with unitary ``U`` followed by
    ``single_mode_gto(p, phi, nu_b)`` is ``cm -> p M cm M^T + q 1`` with
    ``M = D_phi U`` and ``q = (1 - p) nu_b``, carried in closed form, and
    each output must still be physical (``cm[0, 0] > 0`` and ``det >= (1 -
    CHANNEL_TOL)^2``, the single-mode form of ``validate_state``).  First
    moments do not enter the trace and are not carried.

    Args:
        initial: single-mode starting state.
        steps: iterable of ProtocolStep.
        nu_b: bath symplectic eigenvalue shared by all thermalization steps,
            checked as in ``single_mode_gto``.

    Returns:
        CoolingTrace with the entropy floor ``entropy(min(nu_0, nu_b))`` and
        a ``violated`` flag (an entropy more than ``BOUND_TOL`` below the
        floor) that stays False on every physical run.

    Raises:
        ValueError: on invalid input; if step k's output covariance matrix
            or its determinant overflows ("protocol step k overflows"); or if
            step k's output is unphysical ("protocol step k output has an
            invalid covariance matrix"), as when symplectic steps within
            tolerance drift the determinant below its floor.
    """
    if initial.n_modes != 1:
        raise ValueError("cooling protocols act on a single mode")
    if not validate_state(initial):
        raise ValueError("initial state has an invalid covariance matrix")
    (a, b), (_, c) = initial.cm.tolist()
    floats = ((step.unitary.ravel().tolist(), float(step.gto_p), step.gto_phi) for step in steps)
    return CoolingTrace(*protocol_trace(a, b, c, floats, nu_b))


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

    return CoolingTrace(steps=trace, bound=bound, violated=_breaks_floor(trace, bound))


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
    (a, b), (_, c) = out_cm.tolist()
    return GaussianState(1, np.zeros(2), out_cm), _nu_of_det(_det(a, b, c))
