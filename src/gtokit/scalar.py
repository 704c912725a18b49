"""Single-mode rules on Python floats, without numpy.

The paper's single-mode results reduce to closed forms on a few floats: the
thermal symplectic eigenvalue, the entropy, the cooling step and its entropy
floor.  They live here, with the tolerances they share, so that ``gtokit
feasible`` and protocol ``gtokit cool`` start without importing numpy.  The
numpy-backed modules import each rule and tolerance from here.
"""

import math

STRUCTURAL_TOL = 1e-9
# Positive-semidefiniteness of the complete-positivity matrix is checked more
# loosely than structural identities: it involves eigenvalues of a difference
# of products.
CHANNEL_TOL = 1e-8
BOUND_TOL = 1e-9
# A single-mode CM is physical iff cm[0, 0] > 0 and det(cm) = nu^2 >= 1; the
# slack matches the state check ``apply_channel`` makes at CHANNEL_TOL.
_MIN_DET = (1.0 - CHANNEL_TOL) ** 2

_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two halves of 26 bits


def _check_nu(value: float, name: str) -> None:
    """Refuse a symplectic eigenvalue (or squeezing factor) that is NaN, infinite or below 1."""
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 1, got {value}")


def _check_squeeze(z: float) -> None:
    if z <= 0:
        raise ValueError("squeeze factor must be positive")


def nu_of(beta: float, omega: float) -> float:
    """Thermal symplectic eigenvalue ``(e^{beta omega} + 1) / (e^{beta omega} - 1)``.

    Evaluated as ``1 / tanh(beta omega / 2)`` for overflow-free behaviour at
    large ``beta omega``; tends to 1 in the ground-state limit.
    """
    if not (beta > 0 and omega > 0):
        raise ValueError("beta and omega must be positive")
    return 1.0 / math.tanh(0.5 * beta * omega)


def entropy(nu: float) -> float:
    """Von Neumann entropy (nats) of a mode with symplectic eigenvalue ``nu``.

    ``(nu+1)/2 ln((nu+1)/2) - (nu-1)/2 ln((nu-1)/2)``; zero for pure states.
    With ``dn = (nu-1)/2`` this is ``ln(1+dn) + dn ln(1+1/dn)``, which has no
    cancellation between two ``x ln x`` terms at any ``nu``.
    """
    _check_nu(nu, "nu")
    dn = 0.5 * (nu - 1.0)
    if dn == 0.0:
        return 0.0
    return math.log1p(dn) + dn * math.log1p(1.0 / dn)


def _two_product(x: float, y: float) -> tuple:
    """``(p, e)`` with ``p = fl(x y)`` and ``p + e = x y`` exactly.

    Dekker's two-product over Veltkamp's split (Numer. Math. 18, 224
    (1971)); exact unless ``2**27 x`` or ``2**27 y`` overflows or ``e``
    falls into the subnormal range.
    """
    t = _VELTKAMP * x
    xh = t - (t - x)
    xl = x - xh
    t = _VELTKAMP * y
    yh = t - (t - y)
    yl = y - yh
    p = x * y
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _det_split(a: float, b: float, c: float) -> tuple:
    """``(m, e)`` with ``det [[a, b], [b, c]] = a c - b^2 = m 2^e`` for
    finite entries, ``m`` rounded once.

    Each entry is split exactly into a mantissa in [0.5, 1) and a power of
    two, so the error-free products of the mantissas stay in range however
    far apart the entries' magnitudes lie (``a = 3e300``, ``c = 3e-300``).
    ``a c`` and ``b^2`` are then scaled to the larger of their exponents; a
    term this pushes below the double range is negligible beside the
    other.
    """
    (ma, ea), (mb, eb), (mc, ec) = math.frexp(a), math.frexp(b), math.frexp(c)
    ac, ac_err = _two_product(ma, mc)
    bb, bb_err = _two_product(mb, mb)
    e_ac, e_bb = ea + ec, 2 * eb
    e = max(e_ac if ac else e_bb, e_bb if bb else e_ac)  # a zero term's exponent does not count
    ac, ac_err = math.ldexp(ac, e_ac - e), math.ldexp(ac_err, e_ac - e)
    bb, bb_err = math.ldexp(bb, e_bb - e), math.ldexp(bb_err, e_bb - e)
    return (ac - bb) + (ac_err - bb_err), e


def _det(a: float, b: float, c: float) -> float:
    """``det [[a, b], [b, c]]``, rounded once; an overflow is ``inf`` with its sign."""
    det, e = _det_split(a, b, c)
    try:
        return math.ldexp(det, e)
    except OverflowError:
        return math.copysign(math.inf, det)


def _is_symplectic_2x2(s00: float, s01: float, s10: float, s11: float) -> bool:
    """One mode's ``S Omega S^T = det(S) Omega``: symplectic iff ``|det S - 1| <= STRUCTURAL_TOL``."""
    return abs(s00 * s11 - s01 * s10 - 1.0) <= STRUCTURAL_TOL


def _step_entries(squeeze: float, rotate: float) -> tuple:
    """Entries of ``rotation(rotate) @ squeezer(squeeze)``, row by row."""
    _check_squeeze(squeeze)
    c, s, inv = math.cos(rotate), math.sin(rotate), 1.0 / squeeze
    return (c * squeeze, s * inv, -s * squeeze, c * inv)


def _check_step(U: tuple, p: float) -> None:
    """Refuse a protocol step whose unitary ``U`` (four entries row by row;
    empty for any other shape) is not symplectic, or whose ``p`` is outside [0, 1]."""
    if len(U) != 4 or not _is_symplectic_2x2(*U):
        raise ValueError("step unitary must be a 2x2 symplectic matrix")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gto_p must lie in [0, 1], got {p}")


def _nu_of_det(det: float) -> float:
    return max(math.sqrt(max(det, 0.0)), 1.0)


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


def _breaks_floor(trace: list, bound: float) -> bool:
    """True iff an entropy of the ``(nu, entropy)`` trace is more than ``BOUND_TOL`` below ``bound``."""
    return any(ent < bound - BOUND_TOL for _, ent in trace)


def protocol_trace(a: float, b: float, c: float, steps, nu_b: float) -> tuple:
    """Run a single-mode protocol from ``cm = [[a, b], [b, c]]`` on Python floats.

    Each of ``steps`` is ``(U, p, phi)``: the step unitary's four entries
    row by row, then the weight and phase of ``single_mode_gto(p, phi,
    nu_b)``, each checked by :func:`_check_step` beforehand.  A step is
    ``cm -> p M cm M^T + q 1`` with ``M = D_phi U`` and ``q = (1 - p) nu_b``
    (:func:`_gto_step`, ``det M = det U``).

    The caller vouches for the initial state: ``run_protocol`` checks it
    with ``validate_state``, the CLI its diagonal start on floats.  Every
    step's output must be physical (``a > 0`` and ``det >= (1 -
    CHANNEL_TOL)^2``).  ``det`` starts as :func:`_det`'s error-free
    determinant.

    Returns:
        ``(trace, bound, violated)``: the ``(nu, entropy)`` pairs, entry 0
        the initial state; the floor ``entropy(min(nu_0, nu_b))``; and
        whether an entropy falls more than ``BOUND_TOL`` below it.

    Raises:
        ValueError: on an invalid ``nu_b``; if step k's output covariance
            matrix or its determinant overflows ("protocol step k
            overflows"); or if step k's output is unphysical ("protocol step
            k output has an invalid covariance matrix").
    """
    det = _det(a, b, c)
    _check_nu(nu_b, "nu_b")
    nu_b = float(nu_b)  # with p, keeps the steps on Python floats, which never warn
    nu_0 = _nu_of_det(det)
    bound = entropy_lower_bound(nu_0, nu_b)
    trace = [(nu_0, entropy(nu_0))]
    for U, p, phi in steps:
        co, si = math.cos(phi), math.sin(phi)
        M = _mul((co, si, -si, co), U)
        a, b, c, det = _gto_step(a, b, c, det, M, U[0] * U[3] - U[1] * U[2], p, (1.0 - p) * nu_b)
        # Checked steps reach this: each |det U - 1| is within STRUCTURAL_TOL, but from the
        # vacuum the 11th step of diag(1 - 1e-9, 1) at p = 1 takes det below _MIN_DET.
        if not (a > 0.0 and _MIN_DET <= det < math.inf):
            if all(map(math.isfinite, (a, b, c, det))):
                raise ValueError(f"protocol step {len(trace)} output has an invalid covariance matrix")
            raise ValueError(
                f"protocol step {len(trace)} overflows: its output covariance matrix "
                "or that matrix's determinant is not finite"
            )
        nu = _nu_of_det(det)
        trace.append((nu, entropy(nu)))
    return trace, bound, _breaks_floor(trace, bound)
