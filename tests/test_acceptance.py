"""Acceptance suite: one test per headline guarantee, each printing a verdict.

Run with ``pytest -s`` (the project default) so the ``[criterion NN]`` lines
appear in the log; every test also enforces its stated runtime budget.  The
seeded property criteria run the ``gtokit.selftest`` suites at full size.
"""

from time import perf_counter

import numpy as np

from gtokit import selftest
from gtokit.channels import apply_channel, single_mode_gto
from gtokit.cooling import sideband_swap
from gtokit.feasibility import TransformQuery, single_mode_feasible
from gtokit.states import GaussianState, free_energy, nu_of


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _run_suites(num: int, name: str, seed: int, budget_s: float, *suites) -> None:
    """Run full-size selftest suites on ``seed`` as one criterion within ``budget_s``."""
    t0 = perf_counter()
    results = [suite(seed) for suite in suites]
    elapsed = perf_counter() - t0
    ok = all(res.passed for res in results) and elapsed < budget_s
    detail = "; ".join(res.detail for res in results)
    _report(num, name, ok, f"{detail}, {elapsed:.2f} s")


def test_criterion_01_worked_example():
    query = TransformQuery(nu_i=2.0, z_i=4.0, nu_f=2.5, z_f=2.0, nu_b=2.0)
    state = GaussianState(1, np.zeros(2), np.diag([8.0, 0.5]))
    target = np.diag([5.0, 1.25])

    # warm up so the timing covers the computation, not interpreter startup
    single_mode_feasible(query)
    apply_channel(single_mode_gto(0.5, 0.0, 2.0), state)

    t0 = perf_counter()
    res = single_mode_feasible(query)
    out = apply_channel(single_mode_gto(res.p, 0.0, 2.0), state)
    elapsed = perf_counter() - t0

    p_err = abs(res.p - 0.5)
    cm_err = np.abs(out.cm - target).max()
    ok = res.feasible and p_err <= 1e-10 and cm_err <= 1e-10 and elapsed < 1e-3
    _report(
        1,
        "worked-example reproduction",
        ok,
        f"p={res.p!r} (err {p_err:.1e}), cm err {cm_err:.1e}, {elapsed * 1e3:.2f} ms",
    )


def test_criterion_02_oracle_equivalence():
    _run_suites(
        2, "decomposed channel vs dilation oracle", 202, 10.0, selftest.suite_oracle_equivalence
    )


def test_criterion_03_decomposition_round_trips():
    _run_suites(
        3,
        "decomposition round trips",
        303,
        5.0,
        selftest.suite_williamson_roundtrip,
        selftest.suite_cs_roundtrip,
    )


def test_criterion_04_isotropy_invariance():
    _run_suites(4, "frequency-sector isotropy", 404, 2.0, selftest.suite_isotropy)


def test_criterion_05_feasibility_soundness():
    _run_suites(5, "feasibility soundness sweep", 505, 5.0, selftest.suite_feasibility_soundness)


def test_criterion_06_unsqueezed_interval_criterion():
    grid = [float(v) for v in np.linspace(1.0, 4.0, 50)]
    t0 = perf_counter()
    mismatches = 0
    for nu_i in grid:
        for nu_b in grid:
            lo, hi = (nu_i, nu_b) if nu_i <= nu_b else (nu_b, nu_i)
            for nu_f in grid:
                predicted = lo <= nu_f <= hi
                got = single_mode_feasible(
                    TransformQuery(nu_i=nu_i, z_i=1.0, nu_f=nu_f, z_f=1.0, nu_b=nu_b)
                ).feasible
                mismatches += predicted != got
    elapsed = perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    _report(
        6,
        "unsqueezed interval criterion",
        ok,
        f"{mismatches} mismatches on the 50^3 grid, {elapsed:.2f} s",
    )


def test_criterion_07_cooling_no_go():
    _run_suites(7, "cooling no-go", 707, 30.0, selftest.suite_cooling_bound)


def test_criterion_08_sideband_escape():
    state = GaussianState(1, np.zeros(2), np.diag([4.0, 0.3]))
    t0 = perf_counter()
    worst = 0.0
    for beta, om in ((0.5, 16.0), (1.0, 8.0), (1.0, 10.0), (2.0, 5.0), (0.8, 15.0), (0.2, 3.0)):
        _, nu = sideband_swap(state, beta, om)
        worst = max(worst, abs(nu - nu_of(beta, om)))
    cold_ok = all(
        sideband_swap(state, beta, om)[1] < 1.001
        for beta, om in ((1.0, 8.0), (0.5, 16.0), (2.0, 4.0), (1.0, 12.0))
    )
    elapsed = perf_counter() - t0
    ok = worst <= 1e-12 and cold_ok and elapsed < 1.0
    _report(
        8,
        "sideband escape route",
        ok,
        f"max |nu - nu_of| {worst:.2e}, nu < 1.001 whenever beta*omega >= 8: {cold_ok}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_09_thermo_majorization_agreement():
    _run_suites(9, "thermo-majorization agreement", 909, 10.0, selftest.suite_thermo_agreement)


def test_criterion_10_free_energy_minimum():
    rng = np.random.default_rng(1010)
    nus = np.linspace(1.0, 16.0, 15001)
    spacing = nus[1] - nus[0]
    t0 = perf_counter()
    worst = 0.0
    for _ in range(20):
        beta = rng.uniform(0.3, 2.0)
        om = rng.uniform(0.5, 2.0)
        values = [free_energy(nu, 1.0, beta, om) for nu in nus]
        nu_star = nus[int(np.argmin(values))]
        worst = max(worst, abs(nu_star - nu_of(beta, om)))
    elapsed = perf_counter() - t0
    ok = worst <= spacing and elapsed < 2.0
    _report(
        10,
        "free-energy minimum at the bath value",
        ok,
        f"max |argmin - nu_of| {worst:.2e} (grid step {spacing:.1e}), {elapsed:.2f} s",
    )
