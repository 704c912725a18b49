"""Seeded property suites: the catalogue of the paper's headline results.

Each suite draws its own cases from ``seed``, so a run is reproducible end
to end.  At full size the suites are the acceptance criteria, which call
them with fixed seeds, so a full ``gtokit selftest`` certifies an installed
copy at acceptance strength without the test tree; ``quick`` trims the
sample counts for smoke testing.
"""

from dataclasses import dataclass

import numpy as np

from .channels import GTOSector, GTOSpec, dilate_and_trace, gto_to_channel, single_mode_gto
from .cooling import greedy_adversary, run_protocol, ProtocolStep
from .feasibility import TransformQuery, single_mode_feasible
from .states import (
    FrequencySector,
    FrequencySpectrum,
    GaussianState,
    nu_of,
    single_mode_decompose,
)
from .symplectic import (
    block_diag,
    build_isotropy_element,
    cosine_sine_decompose,
    is_symplectic,
    omega,
    random_symplectic,
    random_unitary,
    unitary_to_passive,
    williamson,
)
from .thermo import cross_check, dominance_margin, geometric_probs, level_cutoff, thermo_curve


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _random_cm(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """``S diag(nu) S^T`` with ``S`` from :func:`random_symplectic` and each
    ``nu`` uniform in [1, 3]."""
    S = random_symplectic(n_modes, _subseed(rng))
    nus = rng.uniform(1.0, 3.0, size=n_modes)
    return S @ np.diag(np.repeat(nus, 2)) @ S.T


def suite_oracle_equivalence(seed: int, quick: bool = False) -> SuiteResult:
    """Decomposed-form channel vs explicit dilation, equal-size bath."""
    rng = np.random.default_rng(seed)
    n_unitaries, n_cms = (5, 3) if quick else (100, 10)
    worst = 0.0
    cases = 0
    for n in (1, 2, 3):
        for _ in range(n_unitaries):
            U = random_unitary(2 * n, _subseed(rng))
            O = unitary_to_passive(U)
            beta = rng.uniform(0.3, 2.0)
            om = rng.uniform(0.5, 2.0)
            nu_b = nu_of(beta, om)

            csf = cosine_sine_decompose(U)
            spectrum = FrequencySpectrum(
                S=np.eye(2 * n),
                sectors=(FrequencySector(omega=om, multiplicity=n, mode_indices=tuple(range(n))),),
            )
            spec = GTOSpec(
                spectrum=spectrum,
                beta=beta,
                sectors=[GTOSector(Z=csf.Z, thetas=csf.thetas, W=csf.W)],
            )
            ch = gto_to_channel(spec)
            for _ in range(n_cms):
                cm = _random_cm(n, rng)
                via_form = ch.X @ cm @ ch.X.T + ch.Y
                via_oracle = dilate_and_trace(cm, O, [nu_b] * n)
                worst = max(worst, np.abs(via_form - via_oracle).max())
                cases += 1
    ok = worst <= 1e-8
    return SuiteResult(
        "oracle-equivalence", ok, f"max deviation {worst:.2e} over {cases} cases (tol 1e-08)"
    )


def suite_williamson_roundtrip(seed: int, quick: bool = False) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n_cases = 20 if quick else 100
    worst = 0.0
    for _ in range(n_cases):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((2 * n, 2 * n))
        P = A @ A.T + 0.5 * np.eye(2 * n)
        form = williamson(P)
        if not is_symplectic(form.S):
            return SuiteResult("williamson-roundtrip", False, "non-symplectic S")
        err = np.abs(form.reconstruct() - P).max() / np.abs(P).max()
        worst = max(worst, err)
    ok = worst <= 1e-8
    return SuiteResult(
        "williamson-roundtrip", ok, f"max relative error {worst:.2e} over {n_cases} cases (tol 1e-08)"
    )


def suite_cs_roundtrip(seed: int, quick: bool = False) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n_cases = 20 if quick else 100
    worst = 0.0
    for _ in range(n_cases):
        n = int(rng.integers(1, 7))
        U = random_unitary(2 * n, _subseed(rng))
        csf = cosine_sine_decompose(U)
        worst = max(worst, np.abs(csf.reconstruct() - U).max())
    ok = worst <= 1e-9
    return SuiteResult(
        "cs-roundtrip", ok, f"max reconstruction error {worst:.2e} over {n_cases} cases (tol 1e-09)"
    )


def suite_isotropy(seed: int, quick: bool = False) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n_cases, n_controls = (10, 1) if quick else (100, 10)
    worst = 0.0
    for _ in range(n_cases):
        mults = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        omegas = 0.5 + np.cumsum(rng.uniform(0.2, 1.0, size=len(mults)))
        blocks = [random_unitary(d, _subseed(rng)) for d in mults]
        K = build_isotropy_element(mults, blocks)
        Y = block_diag(*[w * np.eye(2 * d) for w, d in zip(omegas, mults)])
        Om = omega(sum(mults))
        worst = max(worst, np.abs(K @ Y @ K.T - Y).max())
        worst = max(worst, np.abs(K @ (Y @ Om) - (Y @ Om) @ K).max())
    # Negative controls: mixing two sectors of different frequency breaks it.
    Y_bad = block_diag(1.0 * np.eye(2), 2.0 * np.eye(2))
    violation = np.inf
    for _ in range(n_controls):
        U_bad = unitary_to_passive(random_unitary(2, _subseed(rng)))
        violation = min(violation, np.abs(U_bad @ Y_bad @ U_bad.T - Y_bad).max())
    ok = worst <= 1e-10 and violation > 1e-6
    return SuiteResult(
        "isotropy-invariance",
        ok,
        f"max invariance defect {worst:.2e} (tol 1e-10), control violation {violation:.2e}",
    )


def suite_feasibility_soundness(seed: int, quick: bool = False) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n_forward, n_negative = (300, 50) if quick else (10_000, 1_000)
    worst_p = 0.0
    for _ in range(n_forward):
        nu_i = rng.uniform(1.0, 5.0)
        z_i = rng.uniform(1.0, 4.0)
        nu_b = rng.uniform(1.0, 4.0)
        p = rng.uniform(0.0, 1.0)
        cm = nu_i * np.diag([z_i, 1.0 / z_i])
        ch = single_mode_gto(p, rng.uniform(0.0, 2.0 * np.pi), nu_b)
        form = single_mode_decompose(ch.X @ cm @ ch.X.T + ch.Y)
        res = single_mode_feasible(
            TransformQuery(nu_i=nu_i, z_i=z_i, nu_f=form.nu, z_f=form.z, nu_b=nu_b)
        )
        if not res.feasible:
            return SuiteResult(
                "feasibility-soundness", False, f"forward-simulated case judged {res.reason}"
            )
        worst_p = max(worst_p, abs(res.p - p))
    # Negative cases alternate: a target below the temperature floor, then one
    # with more squeezing than the input carries.
    rejected = [0, 0]
    for k in range(n_negative):
        nu_i = rng.uniform(1.3, 5.0)
        z_i = rng.uniform(1.0, 4.0)
        nu_b = rng.uniform(1.3, 4.0)
        lo, hi = min(nu_i, nu_b), max(nu_i, nu_b)
        if k % 2 == 0:
            nu_f = 1.0 + rng.uniform(0.05, 0.9) * (lo - 1.0)
            z_f = rng.uniform(1.0, 2.0)
        else:
            nu_f = rng.uniform(lo, hi)
            z_f = z_i * rng.uniform(1.1, 2.0)
        q = TransformQuery(nu_i=nu_i, z_i=z_i, nu_f=nu_f, z_f=z_f, nu_b=nu_b)
        if not single_mode_feasible(q).feasible:
            rejected[k % 2] += 1
    n_below, n_over = (n_negative + 1) // 2, n_negative // 2
    ok = worst_p <= 1e-8 and rejected == [n_below, n_over]
    return SuiteResult(
        "feasibility-soundness",
        ok,
        f"{n_forward} forward cases, max |p error| {worst_p:.2e}; "
        f"{rejected[0]}/{n_below} below-floor and {rejected[1]}/{n_over} over-squeezed targets rejected",
    )


def suite_cooling_bound(seed: int, quick: bool = False) -> SuiteResult:
    rng = np.random.default_rng(seed)
    # short protocols of 1-6 steps, then long ones of 20 steps
    n_short, n_long = (0, 10) if quick else (10_000, 50)
    nu_0, nu_b = 5.0, 2.0
    floor = min(nu_0, nu_b)
    initial = GaussianState(1, np.zeros(2), nu_0 * np.eye(2))
    worst = np.inf
    lengths = list(rng.integers(1, 7, size=n_short)) + [20] * n_long
    for n_steps in lengths:
        steps = [
            ProtocolStep.from_params(
                squeeze=float(np.exp(rng.uniform(0.0, np.log(5.0)))),
                rotate=float(rng.uniform(0.0, 2.0 * np.pi)),
                p=float(rng.uniform(0.0, 1.0)),
                phi=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            for _ in range(n_steps)
        ]
        try:
            trace = run_protocol(initial, steps, nu_b)
        except ValueError as exc:  # a step left the physical states
            return SuiteResult("cooling-bound", False, f"random protocol failed: {exc}")
        if trace.violated:
            return SuiteResult("cooling-bound", False, "random protocol broke the floor")
        worst = min(worst, trace.nus.min())
    # At nu_0 = nu_b the thermal state is a fixed point, bit for bit when
    # sqrt(p) is exactly representable.
    bath = GaussianState(1, np.zeros(2), nu_b * np.eye(2))
    steps = [ProtocolStep(np.eye(2), p) for p in (0.25, 1.0, 0.0, 0.25, 0.25)]
    if any(nu != nu_b for nu in run_protocol(bath, steps, nu_b).nus):
        return SuiteResult("cooling-bound", False, "bath-temperature state is not a fixed point")
    adv = greedy_adversary(nu_0, nu_b, n_steps=3 if quick else 10)
    worst = min(worst, adv.nus.min())
    ok = worst >= floor - 1e-6 and not adv.violated
    return SuiteResult(
        "cooling-bound",
        ok,
        f"min nu reached {worst:.9f} vs floor {floor} (slack 1e-06), adversary included",
    )


def _crossing_resolvable(beta_i: float, beta_f: float, beta: float, E: float) -> bool:
    """True if the majorization curves cross by a margin double precision can see."""
    N = level_cutoff(beta_i, beta_f, beta, E=E)
    g = geometric_probs(beta, E, N)
    ci = thermo_curve(geometric_probs(beta_i, E, N), g)
    cf = thermo_curve(geometric_probs(beta_f, E, N), g)
    return dominance_margin(ci, cf) < -1e-8


def thermo_agreement_cases(rng: np.random.Generator, count: int) -> list:
    """Seeded (beta_i, beta_f, beta, E) cases with numerically decidable verdicts.

    Half the cases put the target strictly inside the temperature interval
    (reachable); a quarter overshoot past the initial temperature on the same
    side of the bath, where the majorization curves separate at bulk scale;
    the last quarter overshoot the bath to the opposite side.  In that family
    the curve crossing can sit exponentially close to the (1, 1) corner —
    its depth shrinks like ``((1-a)/(1-r))**(beta/|beta_f-beta|)`` as
    ``beta_f -> beta`` — so candidates are redrawn until the crossing is
    resolvable; a crossing below double-precision depth is invisible to any
    finite-tolerance comparison even though the exact verdict is "infeasible".
    """
    cases = []
    while len(cases) < count:
        kind = len(cases) % 4
        beta_i, beta = rng.uniform(0.4, 2.5, size=2)
        E = rng.uniform(0.6, 1.8)
        if abs(beta_i - beta) < 0.2:
            continue
        if kind in (0, 1):
            t = rng.uniform(0.05, 0.95)
        elif kind == 2:
            t = rng.uniform(1.05, 1.9)
        else:
            t = -rng.uniform(0.1, 1.0)
        beta_f = beta + t * (beta_i - beta)
        if beta_f < 0.25:
            continue
        if kind == 3 and not _crossing_resolvable(beta_i, beta_f, beta, E):
            continue
        cases.append((float(beta_i), float(beta_f), float(beta), float(E)))
    return cases


def suite_thermo_agreement(seed: int, quick: bool = False) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n_cases = 10 if quick else 200
    agreements = 0
    for beta_i, beta_f, beta, E in thermo_agreement_cases(rng, n_cases):
        N = level_cutoff(beta_i, beta_f, beta, E=E)
        _, _, agree = cross_check(beta_i, beta_f, beta, E, N)
        _, _, agree2 = cross_check(beta_i, beta_f, beta, E, 2 * N)
        if agree and agree2:
            agreements += 1
    ok = agreements == n_cases
    return SuiteResult(
        "thermo-agreement", ok, f"{agreements}/{n_cases} verdicts agree (and at doubled cutoff)"
    )


_SUITES = {
    "oracle-equivalence": suite_oracle_equivalence,
    "williamson-roundtrip": suite_williamson_roundtrip,
    "cs-roundtrip": suite_cs_roundtrip,
    "isotropy-invariance": suite_isotropy,
    "feasibility-soundness": suite_feasibility_soundness,
    "cooling-bound": suite_cooling_bound,
    "thermo-agreement": suite_thermo_agreement,
}


def _run_suite(name: str, suite, seed: int, quick: bool) -> SuiteResult:
    """``suite(seed, quick)``, with a ``ValueError`` it raises reported as a failure.

    Inside a suite the inputs are generated, so a library refusal means the
    property broke, not that the user gave bad input.
    """
    try:
        return suite(seed, quick)
    except ValueError as exc:
        return SuiteResult(name, False, f"raised {type(exc).__name__}: {exc}")


def run_all(seed: int, quick: bool = False) -> list:
    """Run every suite on sub-seeds of ``seed``; returns a list of SuiteResult."""
    rng = np.random.default_rng(seed)
    return [_run_suite(name, suite, _subseed(rng), quick) for name, suite in _SUITES.items()]
