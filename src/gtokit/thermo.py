"""Thermo-majorization of level populations against Gibbs weights.

A state diagonal in the number basis is compared against another through
piecewise-linear majorization curves rescaled by the bath's Gibbs weights:
the transformation is allowed iff the input's curve lies everywhere above
the target's.  Populations are plain arrays over one level grid.  For
single-mode unsqueezed Gaussian states, whose populations are geometric,
this reproduces the symplectic-eigenvalue interval criterion, which
:func:`cross_check` verifies case by case.
"""

import math

import numpy as np

from .feasibility import TransformQuery, single_mode_feasible
from .states import nu_of

TAIL_TOL = 1e-12
DOMINANCE_TOL = 1e-10


def geometric_probs(beta: float, E: float, N: int) -> np.ndarray:
    """Geometric level populations ``(1 - e^{-beta E}) e^{-beta E n}``, truncated at N.

    Args:
        beta: inverse temperature, > 0.
        E: level spacing, > 0.
        N: number of retained levels, >= 2.

    Returns:
        Length-N population array renormalized to unit total mass.

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
    return probs / probs.sum()


def level_cutoff(*betas: float, E: float) -> int:
    """Level cutoff ``N = ceil(28 / (min(betas) E))`` for comparing these temperatures.

    Every distribution at one of ``betas`` then truncates a tail mass of at
    most ``e^{-28} ~ 6.9e-13``, below ``TAIL_TOL``, so :func:`geometric_probs`
    accepts all of them at ``N`` (and at any larger cutoff).
    """
    if not (E > 0 and all(beta > 0 for beta in betas)):
        raise ValueError("beta and E must be positive")
    return math.ceil(28.0 / (min(betas) * E))


def thermo_curve(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Majorization curve of populations ``p`` relative to Gibbs weights ``g``.

    Levels are sorted by the ratio ``p_n / g_n`` descending (ties broken by
    ascending level index) and the curve joins the cumulative sums
    ``(sum g, sum p)`` along that order, starting from (0, 0); the result is
    concave by construction.

    Args:
        p: populations under test, length N.
        g: Gibbs weights on the same N levels, all positive.

    Returns:
        ``(N + 1, 2)`` array of ``(x, y)`` breakpoints.
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=float)
    if p.shape != g.shape:
        raise ValueError(f"populations {p.shape} and Gibbs weights {g.shape} must share one level grid")
    if not (g > 0.0).all():
        raise ValueError("Gibbs weights must be positive (they underflow at a deep cutoff; use a smaller N)")
    order = (-(p / g)).argsort(kind="stable")  # stable: tied ratios keep ascending level order
    curve = np.zeros((len(p) + 1, 2))
    curve[1:, 0] = g[order]
    curve[1:, 1] = p[order]
    curve[1:].cumsum(axis=0, out=curve[1:])
    return curve


def dominance_margin(a: np.ndarray, b: np.ndarray) -> float:
    """Signed separation ``min_x (a(x) - b(x))`` of two :func:`thermo_curve` arrays.

    Negative iff ``b`` pokes above ``a``.  For piecewise-linear concave curves
    the minimum is attained at one of the two curves' x-breakpoints, so
    evaluating at both grids is sufficient.  Note the resolution limit: both
    curves approach their endpoints exponentially fast, so a true crossing
    confined to the last ``~1e-16`` of either corner evaluates to 0 in double
    precision.
    """
    grid = np.concatenate((a[:, 0], b[:, 0]))
    return float((np.interp(grid, a[:, 0], a[:, 1]) - np.interp(grid, b[:, 0], b[:, 1])).min())


def cross_check(beta_i: float, beta_f: float, beta: float, E: float, N: int) -> tuple:
    """Compare the majorization verdict with the Gaussian interval criterion.

    Builds the curves of the initial (``beta_i``) and target (``beta_f``)
    thermal-diagonal states relative to the bath Gibbs weights (``beta``) and
    tests dominance within ``DOMINANCE_TOL``; independently runs the
    unsqueezed single-mode feasibility test with ``nu = nu_of(beta_x, E)``
    and ``z = 1``.

    Args:
        beta_i, beta_f, beta: initial, target, and bath inverse temperatures.
        E: mode frequency / level spacing.
        N: level cutoff (must keep all three tails below the tolerance).

    Returns:
        (thermo_verdict, gaussian_verdict, agree).
    """
    g = geometric_probs(beta, E, N)
    curve_i = thermo_curve(geometric_probs(beta_i, E, N), g)
    curve_f = thermo_curve(geometric_probs(beta_f, E, N), g)
    thermo_verdict = dominance_margin(curve_i, curve_f) >= -DOMINANCE_TOL

    query = TransformQuery(
        nu_i=nu_of(beta_i, E),
        z_i=1.0,
        nu_f=nu_of(beta_f, E),
        z_f=1.0,
        nu_b=nu_of(beta, E),
    )
    gaussian_verdict = single_mode_feasible(query).feasible
    return thermo_verdict, gaussian_verdict, thermo_verdict == gaussian_verdict
