"""Checks on gtokit's outputs: agreement with :mod:`refs` plus the paper's properties.

Every check returns a list of problems; an empty list means the output
passed.  Tolerances sit far above the error measured on working code and far
below the size of any real fault, and each one says what it is relative to.
"""

import math

import numpy as np

from . import refs

# Agreement of matrices computed by two routes, relative to their largest entry.
MATRIX_TOL = 1e-9
# Williamson reconstruction, relative to the largest entry.
WILLIAMSON_TOL = 1e-8
# Cosine-sine reconstruction of a unitary (entries are at most 1).
CSD_TOL = 1e-9
# The Gibbs state must come back from any GTO; ~4e-15 relative today.
FIXED_POINT_TOL = 1e-12
# The witness p of a forward-simulated target must equal the drawn p.
P_TOL = 1e-8
# Double-precision sqrt(det) of a 2x2 CM loses digits in proportion to its
# conditioning kappa = a c / det, and a digit lost at one step stays lost in
# the later ones; the error is ~4e-14 nu max(kappa so far) at most over 10^4
# random protocols, 25x headroom here.
TRACE_REL_TOL = 1e-12
# Symplectic eigenvalues may fall this far below 1 (or a floor) by rounding.
FLOOR_TOL = 1e-9
# An adversary that reaches the floor ends within this distance of it.
REACH_TOL = 1e-6


def _rel_dev(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


def matrices_agree(name: str, got, want, tol: float = MATRIX_TOL) -> list:
    dev = _rel_dev(got, want)
    return [] if dev <= tol else [f"{name}: relative deviation {dev:.3e} > {tol:.0e}"]


def protocol_trace(nus, entropies, bound, violated, nu0, nu_b, steps) -> list:
    """A ``run_protocol`` trace against the 50-digit reference and the no-go bounds.

    ``steps`` holds ``(squeeze, rotate, p, phi)``.  Each entry's tolerance is
    ``TRACE_REL_TOL (1 + kappa) nu``, with ``kappa`` the largest conditioning
    of the reference trace up to that entry.
    """
    problems = []
    ref = refs.cooling_trace(nu0, nu_b, steps)
    if len(nus) != len(ref) or len(entropies) != len(ref):
        return [f"trace has {len(nus)} entries, expected {len(ref)}"]
    floor = min(nu0, nu_b)
    kappas = np.maximum.accumulate([kappa for _, kappa in ref])
    tols = [TRACE_REL_TOL * (1.0 + kappa) * nu for (nu, _), kappa in zip(ref, kappas)]
    for k, ((nu_ref, _), nu, ent, tol) in enumerate(zip(ref, nus, entropies, tols)):
        if not abs(nu - nu_ref) <= tol:
            problems.append(f"step {k}: nu {nu!r} vs exact {nu_ref!r} (tol {tol:.1e})")
        if not nu >= floor - FLOOR_TOL - tol:
            problems.append(f"step {k}: nu {nu!r} below the floor min(nu0, nu_b) = {floor!r}")
        # the double-precision entropy cancels two terms of size ~nu log(nu)
        if not abs(ent - refs.entropy(nu)) <= 1e-12 + 1e-14 * nu * (1.0 + abs(math.log(nu))):
            problems.append(f"step {k}: entropy {ent!r} is not the entropy of nu {nu!r}")
    for k, (_, _, p, _) in enumerate(steps):
        minkowski = p * nus[k] + (1.0 - p) * nu_b
        if not nus[k + 1] >= minkowski - FLOOR_TOL - tols[k] - tols[k + 1]:
            problems.append(
                f"step {k + 1}: nu {nus[k + 1]!r} breaks the Minkowski bound {minkowski!r}"
            )
    if not abs(bound - refs.entropy(floor)) <= 1e-12:
        problems.append(f"bound {bound!r} is not entropy(min(nu0, nu_b))")
    if violated:
        problems.append("trace reports a violated floor")
    return problems


def adversary_trace(nus, violated, nu0, nu_b, n_steps) -> list:
    """A ``greedy_adversary`` trace: never below the floor, not flagged, floor reached."""
    problems = []
    floor = min(nu0, nu_b)
    if len(nus) != n_steps + 1:
        problems.append(f"trace has {len(nus)} entries, expected {n_steps + 1}")
    low = min(nus)
    if not low >= floor - FLOOR_TOL:
        problems.append(f"min nu {low!r} below the floor {floor!r}")
    if not low <= floor + REACH_TOL:
        problems.append(f"min nu {low!r} never reaches the floor {floor!r}")
    if violated:
        problems.append("trace reports a violated floor")
    return problems


def verdicts(queries, feasible, p, want_feasible, want_p) -> list:
    """Plain single-mode verdicts against the reference verdicts and witnesses.

    ``p`` holds None for a verdict without witness; ``want_p`` holds NaN
    where the reference has no witness to compare.
    """
    feasible = np.asarray(feasible, dtype=bool)
    p = np.array([np.nan if v is None else v for v in p], dtype=float)
    want_feasible, want_p = np.asarray(want_feasible, dtype=bool), np.asarray(want_p, dtype=float)
    with np.errstate(invalid="ignore"):
        bad = {
            "reference verdict differs": feasible != want_feasible,
            "witness outside [0, 1]": feasible & ~((p >= 0.0) & (p <= 1.0)),
            "witness differs from the reference": feasible & ~np.isnan(want_p) & ~(np.abs(p - want_p) <= P_TOL),
            "infeasible verdict carries a witness": ~feasible & ~np.isnan(p),
        }
    return [
        f"query {np.asarray(queries)[i].tolist()}: {what} (feasible={bool(feasible[i])}, p={p[i]!r})"
        for what, mask in bad.items() for i in np.flatnonzero(mask)
    ]


def squeezed_bath(query, feasible, p) -> list:
    """A squeezed-bath verdict: a feasible one has p in [0, 1], respects the
    temperature floor and solves the paper's quadratic."""
    nu_i, z_i, nu_f, z_f, nu_b, vartheta = query
    if not feasible:
        return [] if p is None else [f"squeezed-bath {query}: infeasible verdict carries p={p!r}"]
    problems = []
    if not (p is not None and 0.0 <= p <= 1.0):
        return [f"squeezed-bath {query}: witness p={p!r} outside [0, 1]"]
    if not nu_f >= min(nu_i, nu_b) - FLOOR_TOL:
        problems.append(f"squeezed-bath {query}: feasible below min(nu_i, nu_b)")
    res = refs.squeezed_bath_residual(nu_i, z_i, nu_f, z_f, nu_b, vartheta, p)
    if not res <= 1e-8:
        problems.append(f"squeezed-bath {query}: p={p!r} leaves residual {res:.2e}")
    return problems


def majorization(triple, thermo_verdict, gaussian_verdict, agree) -> list:
    """A ``cross_check`` triple against the between-temperatures rule."""
    want = refs.majorization_verdict(*triple[:3])
    problems = []
    if thermo_verdict != want:
        problems.append(f"cross_check {triple}: thermo verdict {thermo_verdict}, rule says {want}")
    if gaussian_verdict != want:
        problems.append(f"cross_check {triple}: gaussian verdict {gaussian_verdict}, rule says {want}")
    if agree != (thermo_verdict == gaussian_verdict):
        problems.append(f"cross_check {triple}: agree={agree} does not match the two verdicts")
    return problems


def physical(name: str, cm) -> list:
    """Output symplectic eigenvalues (computed here) are at least 1."""
    low = float(refs.symplectic_eigenvalues(np.asarray(cm)).min())
    return [] if low >= 1.0 - FLOOR_TOL else [f"{name}: symplectic eigenvalue {low!r} < 1"]


def williamson_form(cm, S, nus) -> list:
    """``S`` symplectic under the benchmark's own form, ``S diag(nus) S^T = cm``,
    and ``nus`` the descending symplectic eigenvalues."""
    cm, S, nus = np.asarray(cm), np.asarray(S), np.asarray(nus)
    problems = []
    res = refs.symplectic_residual(S)
    if not res <= WILLIAMSON_TOL:
        problems.append(f"williamson: S is not symplectic (residual {res:.2e})")
    problems += matrices_agree("williamson reconstruction", (S * np.repeat(nus, 2)) @ S.T, cm, WILLIAMSON_TOL)
    problems += matrices_agree("williamson eigenvalues", nus, refs.symplectic_eigenvalues(cm), WILLIAMSON_TOL)
    return problems


def single_mode_form(cm, nu, z, phi, want_nu, want_z) -> list:
    """A single-mode normal form: ``nu`` and ``z`` as drawn, ``z >= 1``,
    ``phi`` in [0, pi) and ``nu R_phi diag(z, 1/z) R_phi^T = cm``."""
    problems = []
    if not (abs(nu - want_nu) <= MATRIX_TOL * want_nu and abs(z - want_z) <= MATRIX_TOL * want_z):
        problems.append(f"normal form (nu, z) = ({nu!r}, {z!r}), drawn ({want_nu!r}, {want_z!r})")
    if not (z >= 1.0 and 0.0 <= phi < math.pi):
        problems.append(f"normal form z={z!r}, phi={phi!r} outside z >= 1, phi in [0, pi)")
    return problems + matrices_agree("normal form", refs.single_mode_cm(nu, z, phi), cm)


def cosine_sine(U, W, X, Z, Y, thetas) -> list:
    """Cosine-sine round trip with angles in [0, pi/2]."""
    thetas = np.asarray(thetas)
    problems = []
    if not (thetas.min() >= 0.0 and thetas.max() <= math.pi / 2):
        problems.append("cosine-sine: angles outside [0, pi/2]")
    dev = float(np.abs(refs.cs_reconstruct(W, X, Z, Y, thetas) - U).max())
    if not dev <= CSD_TOL:
        problems.append(f"cosine-sine: reconstruction error {dev:.2e} > {CSD_TOL:.0e}")
    return problems


def spectrum(S, freqs, multiplicities, H, want_freqs, want_mults) -> list:
    """Normal-mode spectrum: sector frequencies and sizes as drawn, ``S`` symplectic,
    ``S diag(freqs) S^T = H``."""
    problems = []
    if list(multiplicities) != list(want_mults):
        return [f"spectrum: sector sizes {list(multiplicities)}, expected {list(want_mults)}"]
    problems += matrices_agree("spectrum frequencies", freqs, want_freqs)
    res = refs.symplectic_residual(np.asarray(S))
    if not res <= WILLIAMSON_TOL:
        problems.append(f"spectrum: S is not symplectic (residual {res:.2e})")
    per_mode = np.repeat(np.repeat(freqs, multiplicities), 2)
    problems += matrices_agree("spectrum reconstruction", (S * per_mode) @ S.T, H, WILLIAMSON_TOL)
    return problems


def fixed_point(gibbs_cm, out_cm) -> list:
    """The Gibbs state comes back unchanged from a thermal operation."""
    return matrices_agree("Gibbs fixed point", out_cm, gibbs_cm, FIXED_POINT_TOL)
