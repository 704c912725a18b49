"""Negative controls: every benchmark check passes gtokit's real output and
fails a corrupted copy of it.

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gtokit import (  # noqa: E402
    FrequencySpectrum,
    GaussianState,
    GTOSpec,
    ProtocolStep,
    cosine_sine_decompose,
    greedy_adversary,
    gto_to_channel,
    normal_mode_spectrum,
    run_protocol,
    single_mode_decompose,
    williamson,
)
from gtokit.states import nu_of  # noqa: E402

from perfbench import checks, cli_oneshot, refs, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.worker import parse_importtime, run_phase  # noqa: E402


def _has(problems, text):
    return any(text in p for p in problems)


# ------------------------------------------------------------------ cooling


@pytest.fixture(scope="module")
def protocol():
    nu0, nu_b = 4.0, 2.0
    steps = workloads.random_steps(np.random.default_rng(3), 8)
    trace = run_protocol(GaussianState(1, np.zeros(2), nu0 * np.eye(2)),
                         [ProtocolStep.from_params(*s) for s in steps], nu_b)
    return nu0, nu_b, steps, trace.nus.tolist(), trace.entropies.tolist(), trace.bound


def _protocol_problems(protocol, nus=None, ents=None, bound=None, violated=False):
    nu0, nu_b, steps, good_nus, good_ents, good_bound = protocol
    return checks.protocol_trace(
        good_nus if nus is None else nus, good_ents if ents is None else ents,
        good_bound if bound is None else bound, violated, nu0, nu_b, steps)


def test_protocol_trace_passes(protocol):
    assert _protocol_problems(protocol) == []


def test_protocol_trace_reference_catches_a_drift(protocol):
    nus = list(protocol[3])
    nus[4] *= 1 + 1e-9
    assert _has(_protocol_problems(protocol, nus=nus), "vs exact")


def test_protocol_trace_floor(protocol):
    nus = list(protocol[3])
    nus[2] = min(protocol[0], protocol[1]) - 0.01
    assert _has(_protocol_problems(protocol, nus=nus), "below the floor")


def test_protocol_trace_minkowski(protocol):
    nu0, nu_b, steps = protocol[:3]
    nus = list(protocol[3])
    p = steps[5][2]
    nus[6] = p * nus[5] + (1 - p) * nu_b - 1e-3
    assert _has(_protocol_problems(protocol, nus=nus), "Minkowski")


def test_protocol_trace_entropy_bound_and_flag(protocol):
    ents = list(protocol[4])
    ents[3] += 1e-9
    assert _has(_protocol_problems(protocol, ents=ents), "is not the entropy")
    assert _has(_protocol_problems(protocol, bound=protocol[5] + 1e-9), "bound")
    assert _has(_protocol_problems(protocol, violated=True), "violated")


def test_adversary_trace():
    trace = greedy_adversary(5.0, 2.0, 10)
    nus = trace.nus.tolist()
    assert checks.adversary_trace(nus, False, 5.0, 2.0, 10) == []
    assert _has(checks.adversary_trace(nus, True, 5.0, 2.0, 10), "violated")
    assert _has(checks.adversary_trace(nus[:-1] + [1.9], False, 5.0, 2.0, 10), "below the floor")
    assert _has(checks.adversary_trace([v + 0.5 for v in nus], False, 5.0, 2.0, 10), "never reaches")
    assert _has(checks.adversary_trace(nus[:-1], False, 5.0, 2.0, 10), "entries")


def test_known_adversary_fault_fails_its_check():
    nu0, nu_b, rounds = 1.5, 3.0, 40
    assert (nu0, nu_b, rounds) in workloads.ADVERSARY_KNOWN_FAULTS
    trace = greedy_adversary(nu0, nu_b, rounds)
    assert checks.adversary_trace(trace.nus.tolist(), trace.violated, nu0, nu_b, rounds)


# ------------------------------------------------------------- reachability


def test_verdicts():
    q = [[2.0, 4.0, 2.5, 2.0, 2.0]]
    assert checks.verdicts(q, [True], [0.5], [True], [0.5]) == []
    assert _has(checks.verdicts(q, [False], [None], [True], [np.nan]), "reference verdict differs")
    assert _has(checks.verdicts(q, [True], [0.5 + 1e-6], [True], [0.5]), "witness differs")
    assert _has(checks.verdicts(q, [True], [1.5], [True], [np.nan]), "outside")
    assert _has(checks.verdicts(q, [True], [None], [True], [np.nan]), "outside")
    assert _has(checks.verdicts(q, [False], [0.3], [False], [np.nan]), "carries")
    two = q + [[3.0, 1.0, 1.5, 1.0, 2.0]]
    assert len(checks.verdicts(two, [True, True], [0.5, 0.2], [True, False], [0.5, np.nan])) == 1


def test_axis_and_interval_references():
    nu_i, z_i, nu_b, p = 2.0, 4.0, 2.0, 0.5
    nu_f, z_f = refs.forward_target(nu_i, z_i, nu_b, p)
    assert (nu_f, z_f) == (2.5, 2.0)
    feasible, ps = refs.axis_verdicts([
        [nu_i, z_i, nu_f, z_f, nu_b],
        [nu_i, z_i, nu_f, z_f * 1.1, nu_b],  # more squeezing than mixing allows
        [3.0, 1.0, 1.5, 1.0, 2.0],  # below the floor
        [2.0, 1.0, 2.0, 1.0, 2.0],  # the bath state itself
        [2.0, 1.0, 2.5, 1.0, 2.0],  # away from the bath state
    ])
    assert feasible.tolist() == [True, False, False, True, False]
    assert ps[0] == 0.5 and ps[3] == 1.0 and np.isnan(ps[1])
    assert refs.interval_verdict(3.0, 2.5, 2.0) and not refs.interval_verdict(3.0, 1.5, 2.0)


def test_reachability_batch_and_its_corruptions():
    op = workloads.reachability_batch(np.random.default_rng(12))
    forms, out_plain, out_squeezed, out_cross = op.run()
    assert forms and op.check((forms, out_plain, out_squeezed, out_cross)) == []
    flipped = [(not f, None if f else 0.5) for f, _ in out_plain[:1]] + out_plain[1:]
    assert _has(op.check((forms, flipped, out_squeezed, out_cross)), "reference verdict differs")
    thermo, gaussian, agree = out_cross[0]
    crossed = [(not thermo, gaussian, not agree)] + out_cross[1:]
    assert _has(op.check((forms, out_plain, out_squeezed, crossed)), "thermo verdict")
    turned = [dataclasses.replace(forms[0], phi=(forms[0].phi + 0.1) % np.pi)] + forms[1:]
    assert _has(op.check((turned, out_plain, out_squeezed, out_cross)), "normal form")


def test_single_mode_form():
    cm = refs.single_mode_cm(2.0, 3.0, 2.5)
    f = single_mode_decompose(cm)
    assert checks.single_mode_form(cm, f.nu, f.z, f.phi, 2.0, 3.0) == []
    assert _has(checks.single_mode_form(cm, f.nu * (1 + 1e-6), f.z, f.phi, 2.0, 3.0), "drawn")
    assert _has(checks.single_mode_form(cm, f.nu, f.z, f.phi + np.pi, 2.0, 3.0), "outside")
    assert _has(checks.single_mode_form(cm, f.nu, 1.0 / f.z, f.phi, 2.0, 1.0 / 3.0), "outside")
    assert _has(checks.single_mode_form(cm, f.nu, f.z, f.phi - 1e-3, 2.0, 3.0), "normal form: relative")


def test_squeezed_bath():
    from gtokit import TransformQuery, squeezed_bath_feasible

    q = (2.0, 2.0, 2.5, 1.5, 2.0, 0.4)
    res = squeezed_bath_feasible(TransformQuery(*q))
    assert res.feasible and checks.squeezed_bath(q, res.feasible, res.p) == []
    assert _has(checks.squeezed_bath(q, True, res.p + 1e-3), "residual")
    assert _has(checks.squeezed_bath(q, True, -0.1), "outside")
    below = (3.0, 2.0, 1.5, 1.5, 2.0, 0.4)
    assert _has(checks.squeezed_bath(below, True, 0.5), "below min")
    assert _has(checks.squeezed_bath(q, False, 0.5), "carries")


def test_majorization():
    inside = (1.0, 1.5, 2.0, 1.0, 30)
    assert checks.majorization(inside, True, True, True) == []
    assert _has(checks.majorization(inside, False, True, False), "thermo verdict")
    assert _has(checks.majorization(inside, True, False, False), "gaussian verdict")
    assert _has(checks.majorization(inside, True, True, False), "agree")


# ---------------------------------------------------------------- multimode


def test_physical_and_fixed_point():
    rng = np.random.default_rng(5)
    cm = workloads.random_cm(3, rng)
    assert checks.physical("x", cm) == []
    assert _has(checks.physical("x", 0.5 * cm / refs.symplectic_eigenvalues(cm).min()), "< 1")
    assert checks.fixed_point(cm, cm.copy()) == []
    assert _has(checks.fixed_point(cm, cm + 1e-10), "fixed point")


def test_williamson_form():
    cm = workloads.random_cm(4, np.random.default_rng(6))
    wf = williamson(cm)
    assert checks.williamson_form(cm, wf.S, wf.nus) == []
    assert _has(checks.williamson_form(cm, 1.01 * wf.S, wf.nus), "not symplectic")
    assert _has(checks.williamson_form(cm, wf.S, wf.nus * (1 + 1e-6)), "eigenvalues")


def test_cosine_sine():
    U = refs.haar_unitary(6, np.random.default_rng(7))
    f = cosine_sine_decompose(U)
    assert checks.cosine_sine(U, f.W, f.X, f.Z, f.Y, f.thetas) == []
    assert _has(checks.cosine_sine(U, f.W, f.X, f.Z, f.Y, f.thetas + 1e-6), "reconstruction")
    assert _has(checks.cosine_sine(U, f.W, f.X, f.Z, f.Y, -f.thetas), "angles")


def test_multimode_case_and_its_corruptions():
    op = workloads.channel_case(3, np.random.default_rng(8))
    res = op.run()
    assert op.check(res) == []
    spectrum, gibbs, out_gibbs, out, wf, csf, out_eq, out_dil = res
    bad = copy.deepcopy(out)
    bad.cm = bad.cm + 1e-6
    assert _has(op.check((spectrum, gibbs, out_gibbs, bad, wf, csf, out_eq, out_dil)), "normal-form output cm")
    assert _has(op.check((spectrum, gibbs, out_gibbs, out, wf, csf, out_eq, out_dil + 1e-6)), "dilate_and_trace")
    moved = copy.deepcopy(out_gibbs)
    moved.cm = moved.cm * (1 + 1e-9)
    assert _has(op.check((spectrum, gibbs, moved, out, wf, csf, out_eq, out_dil)), "fixed point")
    hot = copy.deepcopy(gibbs)
    hot.cm = hot.cm * (1 + 1e-6)
    assert _has(op.check((spectrum, hot, out_gibbs, out, wf, csf, out_eq, out_dil)), "Gibbs state")


def _documented_frame(spectrum):
    """The spectrum with gtokit's frame S replaced by S^-T, which turns gtokit's
    ``S (.) S^-1`` conjugation into the documented ``S^-T (.) S^T`` one."""
    return FrequencySpectrum(S=np.linalg.inv(spectrum.S).T, sectors=spectrum.sectors)


def test_frame_case_fails_today_and_passes_in_the_documented_frame(monkeypatch):
    op = workloads.frame_case()
    assert op.known_fault
    problems = op.check(op.run())
    for what in ("thermal_state", "fixed point", "normal-form output cm", "normal-form output moments"):
        assert _has(problems, what)

    def fixed_channel(spec):
        return gto_to_channel(GTOSpec(_documented_frame(spec.spectrum), spec.beta, spec.sectors))

    def fixed_thermal_state(beta, ham):
        spectrum = _documented_frame(normal_mode_spectrum(ham))
        nus = np.repeat([nu_of(beta, w) for w in spectrum.frequencies], 2)
        return GaussianState(ham.n_modes, ham.center.copy(), (spectrum.S * nus) @ spectrum.S.T)

    monkeypatch.setattr(workloads, "gto_to_channel", fixed_channel)
    monkeypatch.setattr(workloads, "thermal_state", fixed_thermal_state)
    assert op.check(op.run()) == []


def test_multimode_round_fails_exactly_the_frame_case():
    phase = run_phase(workloads.MultimodeOracle(9), 1e-9, 0, {})
    assert phase.attempted == 7 and phase.failed == 1 and phase.problems == []


def test_spectrum():
    H, S, freqs = workloads.hamiltonian(3, np.random.default_rng(9))
    sector_freqs, mults = np.unique(freqs, return_counts=True)
    sector_freqs, mults = sector_freqs[::-1], list(mults[::-1])
    assert checks.spectrum(S, sector_freqs, mults, H, sector_freqs, mults) == []
    assert _has(checks.spectrum(S, sector_freqs, mults[::-1], H, sector_freqs, mults), "sector sizes")
    assert _has(checks.spectrum(S, sector_freqs * 1.01, mults, H, sector_freqs, mults), "frequencies")
    assert _has(checks.spectrum(1.01 * S, sector_freqs, mults, H, sector_freqs, mults), "not symplectic")


# ---------------------------------------------------------------------- CLI


@pytest.fixture(scope="module")
def cli_round():
    ops = cli_oneshot.CliOneshot(11, str(Path(__file__).resolve().parent.parent), in_process=True).make_round(0)
    return [(op, op.run()) for op in ops]


def test_cli_mix_passes(cli_round):
    for op, res in cli_round:
        assert op.check(res) == [], op.kind


def test_cli_checks_catch_corruptions(cli_round):
    for op, (code, out) in cli_round:
        assert _has(op.check((code + 1, out)), "exit code"), op.kind
        assert op.check((code, out[: len(out) // 2])), op.kind


def _corrupt_json(out, key, value):
    res = json.loads(out)
    res[key] = value
    return json.dumps(res)


def test_cli_values_are_checked(cli_round):
    by_sub = {}
    for op, res in cli_round:
        by_sub.setdefault(op.kind, []).append((op, res))
    op, (code, out) = by_sub["feasible"][0]
    assert _has(op.check((code, _corrupt_json(out, "p", 0.6))), "witness")
    op, (code, out) = by_sub["apply"][0]
    assert _has(op.check((code, _corrupt_json(out, "oracle_max_deviation", 1e-6))), "oracle")
    sideband = next((op, r) for op, r in by_sub["cool"] if "nu_achieved" in r[1])
    op, (code, out) = sideband
    assert _has(op.check((code, _corrupt_json(out, "nu_achieved", 1.5))), "nu_achieved")
    op, (code, out) = by_sub["thermo-curve"][0]
    lines = out.splitlines()
    x, y = lines[2].split(",")
    lines[2] = f"{x},{float(y) + 1e-6!r}"
    assert _has(op.check((code, "\n".join(lines))), "thermo-curve")
    op, (code, out) = by_sub["validate"][1]
    assert _has(op.check((0, _corrupt_json(out, "valid", True))), "validated")


# ---------------------------------------------------------- harness pieces


def test_same_seed_same_inputs():
    a = [op.run().nus.tolist() for op in workloads.CoolingSweep(4).make_round(2)[:3]]
    b = [op.run().nus.tolist() for op in workloads.CoolingSweep(4).make_round(2)[:3]]
    c = [op.run().nus.tolist() for op in workloads.CoolingSweep(5).make_round(2)[:3]]
    assert a == b and a != c


def test_tracer_counts_calls_between_layers_and_restores():
    import gtokit.channels
    import gtokit.cooling

    original = gtokit.cooling.apply_channel
    tracer = Tracer()
    tracer.install()
    try:
        assert gtokit.cooling.apply_channel is not original
        workloads.protocol_op(3.0, 2.0, workloads.random_steps(np.random.default_rng(1), 5)).run()
    finally:
        tracer.uninstall()
    assert gtokit.cooling.apply_channel is original
    assert gtokit.channels.apply_channel is original
    assert tracer.calls["cooling.run_protocol"] == 1
    assert tracer.calls["channels.apply_channel"] == 5
    assert tracer.calls["symplectic.is_symplectic"] >= 10
    assert tracer.self_seconds["cooling"] > 0 and tracer.self_seconds["symplectic"] > 0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:       500 |     150000 |     numpy",
        "import time:       200 |       3000 |         scipy._lib",
        "import time:       300 |       4000 |       scipy.linalg._x",
        "import time:       100 |     300000 |     scipy",
        "import time:       100 |       1000 |     scipy.linalg",
        "import time:       700 |     460000 |   gtokit.symplectic",
        "import time:       300 |     470000 | gtokit",
        "import time:       900 |      50000 | gtokit.cli",
    ])
    out = parse_importtime(text)
    assert out == {"total": 520.0, "numpy": 150.0, "scipy": 301.0}


def test_cooling_round_fails_exactly_the_known_faults():
    phase = run_phase(workloads.CoolingSweep(9), 1e-9, 0, {})
    assert phase.attempted == 32 and phase.failed == 3 and phase.problems == []
