"""Single-mode state-transformation feasibility under thermal operations.

A single-mode Gaussian state with normal form (nu, z) maps to the point
``(nu z, nu / z)`` in the plane of principal covariance-matrix axes.  With a
phase-insensitive bath of symplectic eigenvalue nu_b, the reachable targets
are exactly the segment joining that point to the bath point
``(nu_b, nu_b)``, traversed by the channel weight p.  A squeezed bath widens
the reachable set; feasibility then reduces to a quadratic equation in p plus
one positivity condition.
"""

import math
from dataclasses import dataclass

from .scalar import _check_nu

FEASIBILITY_TOL = 1e-9

REASON_OK = "ok"
REASON_P_RANGE = "p-out-of-range"
REASON_INCONSISTENT = "inconsistent-system"
REASON_POSITIVITY = "positivity-violated"


@dataclass(frozen=True)
class TransformQuery:
    """Single-mode transformation instance (nu_i, z_i) -> (nu_f, z_f).

    ``nu_b`` is the bath symplectic eigenvalue.  ``vartheta``, when present,
    is the optical-phase difference between the state's squeezing axes and
    the squeezed bath's; queries without it assume a phase-insensitive
    (unsqueezed) bath.
    """

    nu_i: float
    z_i: float
    nu_f: float
    z_f: float
    nu_b: float
    vartheta: float | None = None

    def __post_init__(self):
        _check_nu(self.nu_i, "nu_i")
        _check_nu(self.z_i, "z_i")
        _check_nu(self.nu_f, "nu_f")
        _check_nu(self.z_f, "z_f")
        _check_nu(self.nu_b, "nu_b")
        if self.vartheta is not None and not math.isfinite(self.vartheta):
            raise ValueError(f"vartheta must be finite, got {self.vartheta}")


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict of a feasibility query; ``p`` is the witness weight when feasible."""

    feasible: bool
    p: float | None
    reason: str


def _clamp01(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def single_mode_feasible(q: TransformQuery, tol: float = FEASIBILITY_TOL) -> FeasibilityResult:
    """Decide reachability with a phase-insensitive bath.

    The transformation exists iff a single ``p`` solves both axis equations
    ``nu_f z_f = p nu_i z_i + (1-p) nu_b`` and
    ``nu_f / z_f = p nu_i / z_i + (1-p) nu_b`` with p in [0, 1].  When the
    input already sits on the bath value along one axis, that equation
    degenerates to a pure consistency check and p comes from the other axis.

    Args:
        q: query without ``vartheta``.
        tol: relative tolerance for the consistency and range checks.

    Returns:
        FeasibilityResult; ``p`` is clamped into [0, 1] when feasible.
    """
    if q.vartheta is not None:
        raise ValueError("query carries a bath phase; use squeezed_bath_feasible")

    a_i = q.nu_i * q.z_i - q.nu_b
    a_f = q.nu_f * q.z_f - q.nu_b
    b_i = q.nu_i / q.z_i - q.nu_b
    b_f = q.nu_f / q.z_f - q.nu_b
    scale = max(1.0, q.nu_i * q.z_i, q.nu_b)

    deg_a = abs(a_i) <= tol * scale
    deg_b = abs(b_i) <= tol * scale

    if deg_a and deg_b:
        # Input is the bath state; only the bath state itself is reachable.
        if abs(a_f) <= tol * scale and abs(b_f) <= tol * scale:
            return FeasibilityResult(True, 1.0, REASON_OK)
        return FeasibilityResult(False, None, REASON_INCONSISTENT)
    if deg_a:
        if abs(a_f) > tol * scale:
            return FeasibilityResult(False, None, REASON_INCONSISTENT)
        p = b_f / b_i
    elif deg_b:
        if abs(b_f) > tol * scale:
            return FeasibilityResult(False, None, REASON_INCONSISTENT)
        p = a_f / a_i
    else:
        p1 = a_f / a_i
        p2 = b_f / b_i
        if abs(p1 - p2) > tol * max(1.0, abs(p1)):
            return FeasibilityResult(False, None, REASON_INCONSISTENT)
        p = p1

    if p < -tol or p > 1.0 + tol:
        return FeasibilityResult(False, None, REASON_P_RANGE)
    return FeasibilityResult(True, _clamp01(p), REASON_OK)


def squeezed_bath_feasible(q: TransformQuery, tol: float = FEASIBILITY_TOL) -> FeasibilityResult:
    """Decide reachability when the bath itself may be squeezed.

    With the phase mismatch ``vartheta`` between state and bath squeezing
    axes, set ``xi = [cos^2(vartheta) (z_i/z_f + z_f/z_i)
    + sin^2(vartheta) (z_i z_f + 1/(z_i z_f))] / 2``.  Feasibility requires a
    root of

        ``p^2 (nu_i^2 - nu_b^2) + 2 p (nu_b^2 - xi nu_i nu_f)
        + (nu_f^2 - nu_b^2) = 0``

    in [0, 1] together with the bath-positivity condition
    ``z_f nu_f - p nu_i (cos^2(vartheta) z_i + sin^2(vartheta) / z_i) >= 0``.
    Both roots are tried in ascending order and the first admissible one is
    returned.

    Args:
        q: query with ``vartheta`` set.
        tol: tolerance for the root, range, and positivity checks.

    Returns:
        FeasibilityResult with diagnostic reason on failure.
    """
    if q.vartheta is None:
        raise ValueError("query has no bath phase; use single_mode_feasible")

    c2 = math.cos(q.vartheta) ** 2
    s2 = math.sin(q.vartheta) ** 2
    xi = 0.5 * (
        c2 * (q.z_i / q.z_f + q.z_f / q.z_i)
        + s2 * (q.z_i * q.z_f + 1.0 / (q.z_i * q.z_f))
    )

    A = q.nu_i**2 - q.nu_b**2
    B = 2.0 * (q.nu_b**2 - xi * q.nu_i * q.nu_f)
    C = q.nu_f**2 - q.nu_b**2
    scale = max(1.0, q.nu_i**2, q.nu_f**2, q.nu_b**2)

    if abs(A) <= tol * scale:
        if abs(B) <= tol * scale:
            # Fully degenerate: every p solves the system iff C vanishes too.
            if abs(C) <= tol * scale:
                candidates = [0.0, 1.0]
            else:
                return FeasibilityResult(False, None, REASON_INCONSISTENT)
        else:
            candidates = [-C / B]
    else:
        disc = B * B - 4.0 * A * C
        if disc < -tol * scale * scale:
            return FeasibilityResult(False, None, REASON_INCONSISTENT)
        root = math.sqrt(max(disc, 0.0))
        candidates = sorted([(-B - root) / (2.0 * A), (-B + root) / (2.0 * A)])

    drain = q.nu_i * (c2 * q.z_i + s2 / q.z_i)
    any_in_range = False
    for cand in candidates:
        if cand < -tol or cand > 1.0 + tol:
            continue
        any_in_range = True
        p = _clamp01(cand)
        if q.z_f * q.nu_f - p * drain >= -tol * scale:
            return FeasibilityResult(True, p, REASON_OK)
    if any_in_range:
        return FeasibilityResult(False, None, REASON_POSITIVITY)
    return FeasibilityResult(False, None, REASON_P_RANGE)


def necessary_bounds(q: TransformQuery, tol: float = FEASIBILITY_TOL) -> list:
    """Evaluate the closed-form necessary conditions for a query.

    ``nu_f >= min(nu_i, nu_b)`` holds for arbitrary Gaussian baths; the
    squeezing bound ``z_f <= z_i`` applies only to phase-insensitive baths
    (mixing with an unsqueezed state cannot increase squeezing) and is
    therefore reported only for queries without ``vartheta``.

    Returns:
        List of (name, satisfied) pairs.
    """
    bounds = [("nu_f>=min(nu_i,nu_b)", q.nu_f >= min(q.nu_i, q.nu_b) - tol)]
    if q.vartheta is None:
        bounds.append(("z_f<=z_i", q.z_f <= q.z_i + tol))
    return bounds
