"""Thermo-majorization for truncated geometric (thermal-diagonal) distributions.

A state diagonal in the number basis with geometric weights is compared
against another through piecewise-linear majorization curves rescaled by the
bath's Gibbs weights: the transformation is allowed iff the input's curve
lies everywhere above the target's.  For single-mode unsqueezed Gaussian
states this reproduces the symplectic-eigenvalue interval criterion, which
:func:`cross_check` verifies case by case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .feasibility import TransformQuery, single_mode_feasible
from .states import nu_of

TAIL_TOL = 1e-12
DOMINANCE_TOL = 1e-10


@dataclass
class GeometricDist:
    """Truncated, renormalized geometric distribution over N energy levels."""

    beta: float
    E: float
    cutoff: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (self.cutoff,):
            raise ValueError(
                f"probs must have length {self.cutoff}, got {self.probs.shape}"
            )


@dataclass
class ThermoCurve:
    """Piecewise-linear majorization curve as (x, y) breakpoints from (0, 0)."""

    breakpoints: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        if self.breakpoints.ndim != 2 or self.breakpoints.shape[1] != 2:
            raise ValueError("breakpoints must be an (k, 2) array")

    @property
    def xs(self) -> np.ndarray:
        return self.breakpoints[:, 0]

    @property
    def ys(self) -> np.ndarray:
        return self.breakpoints[:, 1]

    def at(self, x) -> np.ndarray:
        """Linear interpolation of the curve (clamped at the endpoints)."""
        return np.interp(x, self.xs, self.ys)


def geometric_probs(beta: float, E: float, N: int) -> GeometricDist:
    """Geometric level populations ``(1 - e^{-beta E}) e^{-beta E n}``, truncated at N.

    Args:
        beta: inverse temperature, > 0.
        E: level spacing, > 0.
        N: number of retained levels, >= 2.

    Returns:
        GeometricDist renormalized to unit total mass.

    Raises:
        ValueError: if the cutoff leaves a tail mass ``e^{-beta E N}`` above
            ``TAIL_TOL``; truncation is never silent.
    """
    if not (beta > 0 and E > 0):
        raise ValueError("beta and E must be positive")
    if N < 2:
        raise ValueError("need at least 2 levels")
    tail = math.exp(-beta * E * N)
    if tail > TAIL_TOL:
        raise ValueError(
            f"cutoff N={N} leaves tail mass {tail:.3e} > {TAIL_TOL:.3e}; increase N"
        )
    probs = (1.0 - math.exp(-beta * E)) * np.exp(-beta * E * np.arange(N))
    return GeometricDist(beta=beta, E=E, cutoff=N, probs=probs / probs.sum())


def level_cutoff(*betas: float, E: float) -> int:
    """Level cutoff ``N = ceil(28 / (min(betas) E))`` for comparing these temperatures.

    Every distribution at one of ``betas`` then truncates a tail mass of at
    most ``e^{-28} ~ 6.9e-13``, below ``TAIL_TOL``, so :func:`geometric_probs`
    accepts all of them at ``N`` (and at any larger cutoff).
    """
    if not (E > 0 and all(beta > 0 for beta in betas)):
        raise ValueError("beta and E must be positive")
    return math.ceil(28.0 / (min(betas) * E))


def thermo_curve(p: GeometricDist, g: GeometricDist) -> ThermoCurve:
    """Majorization curve of distribution ``p`` relative to Gibbs weights ``g``.

    Levels are sorted by the ratio ``p_n / g_n`` descending (ties broken by
    ascending level index) and the curve joins the cumulative sums
    ``(sum g, sum p)`` along that order, starting from (0, 0); the result is
    concave by construction.

    Args:
        p: distribution under test.
        g: Gibbs reference on the same level grid.

    Returns:
        ThermoCurve with ``cutoff + 1`` breakpoints.
    """
    if p.cutoff != g.cutoff:
        raise ValueError("distributions must share the level cutoff")
    if abs(p.E - g.E) > 1e-12 * max(1.0, abs(g.E)):
        raise ValueError("distributions must share the level spacing")
    if g.probs[-1] <= 0.0:
        raise ValueError("Gibbs weights underflow at this cutoff; use a smaller N")
    order = np.lexsort((np.arange(p.cutoff), -(p.probs / g.probs)))
    xs = np.concatenate(([0.0], np.cumsum(g.probs[order])))
    ys = np.concatenate(([0.0], np.cumsum(p.probs[order])))
    return ThermoCurve(np.column_stack((xs, ys)))


def dominance_margin(a: ThermoCurve, b: ThermoCurve) -> float:
    """Signed separation ``min_x (a(x) - b(x))``: negative iff ``b`` pokes above ``a``.

    For piecewise-linear concave curves the minimum is attained at one of the
    two curves' x-breakpoints, so the union grid is sufficient.  Note the
    resolution limit: both curves approach their endpoints exponentially fast,
    so a true crossing confined to the last ``~1e-16`` of either corner
    evaluates to 0 in double precision.
    """
    grid = np.union1d(a.xs, b.xs)
    return float(np.min(a.at(grid) - b.at(grid)))


def curve_dominates(a: ThermoCurve, b: ThermoCurve) -> bool:
    """True iff curve ``a`` lies everywhere above curve ``b`` (within ``DOMINANCE_TOL``)."""
    return dominance_margin(a, b) >= -DOMINANCE_TOL


def cross_check(beta_i: float, beta_f: float, beta: float, E: float, N: int) -> tuple:
    """Compare the majorization verdict with the Gaussian interval criterion.

    Builds the curves of the initial (``beta_i``) and target (``beta_f``)
    thermal-diagonal states relative to the bath Gibbs weights (``beta``) and
    tests dominance; independently runs the unsqueezed single-mode
    feasibility test with ``nu = nu_of(beta_x, E)`` and ``z = 1``.

    Args:
        beta_i, beta_f, beta: initial, target, and bath inverse temperatures.
        E: mode frequency / level spacing.
        N: level cutoff (must keep all three tails below the tolerance).

    Returns:
        (thermo_verdict, gaussian_verdict, agree).
    """
    g = geometric_probs(beta, E, N)
    p_i = geometric_probs(beta_i, E, N)
    q_f = geometric_probs(beta_f, E, N)
    thermo_verdict = curve_dominates(thermo_curve(p_i, g), thermo_curve(q_f, g))

    query = TransformQuery(
        nu_i=nu_of(beta_i, E),
        z_i=1.0,
        nu_f=nu_of(beta_f, E),
        z_f=1.0,
        nu_b=nu_of(beta, E),
    )
    gaussian_verdict = single_mode_feasible(query).feasible
    return thermo_verdict, gaussian_verdict, thermo_verdict == gaussian_verdict
