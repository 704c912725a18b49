"""The benchmark's workloads: seeded inputs, the gtokit call each operation
makes, and the check each output must pass.

A workload hands out rounds of operations.  Round ``k`` is drawn from
``(seed, workload, k)`` alone, every round holds the same kinds and number
of operations, and a run attempts whole rounds only, so the share of failed
operations does not depend on the seed or on how many rounds fit in the run.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from gtokit import (
    FrequencySector,
    FrequencySpectrum,
    GaussianState,
    GTOSector,
    GTOSpec,
    HamiltonianSpec,
    ProtocolStep,
    TransformQuery,
    apply_channel,
    cosine_sine_decompose,
    cross_check,
    dilate_and_trace,
    greedy_adversary,
    gto_to_channel,
    normal_mode_spectrum,
    run_protocol,
    single_mode_decompose,
    single_mode_feasible,
    squeezed_bath_feasible,
    thermal_state,
    unitary_to_passive,
    williamson,
)

from . import checks, refs


@dataclass
class Op:
    """One timed call into gtokit and the check of its output.

    ``known_fault`` marks an operation that fails on every run because of a
    recorded fault; its failure is counted, not treated as a wrong benchmark.
    ``protocol_steps`` and ``adversary_rounds`` give the work inside the call
    for the traced run's per-step and per-round costs.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    known_fault: bool = False
    protocol_steps: int = 0
    adversary_rounds: int = 0


class Workload:
    salt = 0

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.salt, k])

    def make_round(self, k: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------- cooling-sweep

# (nu0, nu_b, rounds), the same on every seed.  The three 40-round cases with
# nu0 near or below the bath fail on every run: greedy_adversary breaks argmin
# ties at p = 1 towards arbitrary squeezing, which compounds until the
# double-precision sqrt(det) loses every digit and the trace reports a
# violated floor.
ADVERSARY_PANEL = (
    (5.0, 2.0, 10),
    (5.0, 2.0, 40),
    (1.5, 3.0, 10),
    (1.5, 3.0, 40),
    (3.0, 1.5, 10),
    (3.0, 1.5, 40),
    (1.2, 5.0, 10),
    (1.2, 5.0, 40),
)
ADVERSARY_KNOWN_FAULTS = {(1.5, 3.0, 40), (3.0, 1.5, 40), (1.2, 5.0, 40)}
PROTOCOLS_PER_ROUND = 24


def protocol_op(nu0: float, nu_b: float, steps: list) -> Op:
    def run():
        initial = GaussianState(1, np.zeros(2), nu0 * np.eye(2))
        return run_protocol(initial, [ProtocolStep.from_params(*s) for s in steps], nu_b)

    def check(trace):
        return checks.protocol_trace(
            trace.nus.tolist(), trace.entropies.tolist(), trace.bound, trace.violated,
            nu0, nu_b, steps,
        )

    return Op("protocol", run, check, protocol_steps=len(steps))


def adversary_op(nu0: float, nu_b: float, rounds: int) -> Op:
    def check(trace):
        return checks.adversary_trace(trace.nus.tolist(), trace.violated, nu0, nu_b, rounds)

    return Op(
        "adversary",
        lambda: greedy_adversary(nu0, nu_b, rounds),
        check,
        known_fault=(nu0, nu_b, rounds) in ADVERSARY_KNOWN_FAULTS,
        adversary_rounds=rounds,
    )


def random_steps(rng: np.random.Generator, count: int) -> list:
    """``(squeeze, rotate, p, phi)`` with squeeze log-uniform in [1, 5]."""
    return [
        (
            float(math.exp(rng.uniform(0.0, math.log(5.0)))),
            float(rng.uniform(0.0, 2.0 * math.pi)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        for _ in range(count)
    ]


class CoolingSweep(Workload):
    """Random 1-20 step protocols plus the fixed adversary panel."""

    salt = 1

    def make_round(self, k):
        rng = self.rng(k)
        ops = []
        for _ in range(PROTOCOLS_PER_ROUND):
            nu0, nu_b = (float(v) for v in rng.uniform(1.0, 6.0, size=2))
            ops.append(protocol_op(nu0, nu_b, random_steps(rng, int(rng.integers(1, 21)))))
        ops += [adversary_op(*case) for case in ADVERSARY_PANEL]
        return ops


# ------------------------------------------------------------- reachability-map

LATTICE = 1.0 + 0.25 * np.arange(21)  # 1, 1.25, ..., 6: exact in binary


def conditioned_inputs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows (nu_i, z_i, nu_b), redrawn until both axes ``nu_i z_i`` and
    ``nu_i / z_i`` sit at least 0.05 from the bath, so that each axis fixes p
    to far better than the 1e-9 consistency test."""
    rows = np.empty((0, 3))
    while len(rows) < n:
        cand = np.column_stack((rng.uniform(1.0, 6.0, n), rng.uniform(1.0, 4.0, n), rng.uniform(1.0, 6.0, n)))
        nu_i, z_i, nu_b = cand.T
        rows = np.vstack((rows, cand[(np.abs(nu_i * z_i - nu_b) >= 0.05) & (np.abs(nu_i / z_i - nu_b) >= 0.05)]))
    return rows[:n]


def majorization_triple(rng: np.random.Generator, kind: int) -> tuple:
    """(beta_i, beta_f, beta, E, N): ``beta_f`` inside the interval (kind 0),
    past the initial temperature (1) or past the bath (2), by at least a
    tenth of ``|beta_i - beta|``; N keeps every tail below e^-28."""
    while True:
        beta_i, beta = (float(v) for v in rng.uniform(0.4, 2.5, size=2))
        E = float(rng.uniform(0.6, 1.8))
        t = (
            rng.uniform(0.05, 0.95),
            rng.uniform(1.1, 1.9),
            -rng.uniform(0.1, 1.0),
        )[kind]
        beta_f = beta + float(t) * (beta_i - beta)
        if abs(beta_i - beta) >= 0.2 and beta_f >= 0.25:
            N = math.ceil(28.0 / (min(beta_i, beta_f, beta) * E))
            return beta_i, beta_f, beta, E, N


def reachability_batch(rng: np.random.Generator) -> Op:
    """One batch of queries, each with its reference verdict.

    The size of every part of the batch is drawn too, so batch latencies
    spread smoothly over a decade rather than bunching at a few values.
    """
    n_forward, n_refused, n_squeezed = (int(v) for v in rng.integers(1, 17, size=3))
    # forward-simulated at a drawn p, from inputs given as rotated CMs
    nu_i, z_i, nu_b = conditioned_inputs(rng, n_forward).T
    p = rng.uniform(0.0, 1.0, n_forward)
    forward = np.column_stack((nu_i, z_i, *refs.forward_target(nu_i, z_i, nu_b, p), nu_b))
    initial_cms = [refs.single_mode_cm(*row) for row in zip(nu_i, z_i, rng.uniform(0.0, math.pi, n_forward))]
    # alternately below the temperature floor and more squeezed than the input
    nu_i, nu_b = rng.uniform(1.5, 6.0, (2, n_refused))
    z_i = rng.uniform(1.0, 4.0, n_refused)
    lo, hi = np.minimum(nu_i, nu_b), np.maximum(nu_i, nu_b)
    below = np.arange(n_refused) % 2 == 0
    nu_f = np.where(below, 1.0 + (lo - 1.0) * rng.uniform(0.05, 0.9, n_refused), rng.uniform(lo, hi))
    z_f = np.where(below, rng.uniform(1.0, 2.0, n_refused), z_i * rng.uniform(1.1, 2.0, n_refused))
    refused = np.column_stack((nu_i, z_i, nu_f, z_f, nu_b))
    # unsqueezed interval grid on the lattice
    nu_i, nu_b, nu_f = np.array(list(itertools.product(
        *(rng.choice(LATTICE, size=int(g), replace=False) for g in rng.integers(2, 6, size=3))))).T
    ones = np.ones_like(nu_i)
    grid = np.column_stack((nu_i, ones, nu_f, ones, nu_b))

    plain = np.vstack((forward, refused, grid))  # rows (nu_i, z_i, nu_f, z_f, nu_b)
    want_feasible = np.concatenate((np.ones(n_forward, bool), np.zeros(n_refused, bool),
                                    refs.interval_verdict(nu_i, nu_f, nu_b)))
    want_p = np.concatenate((p, np.full(n_refused + len(grid), np.nan)))
    queries = plain.tolist()

    nu_i, nu_b = (float(v) for v in rng.uniform(1.0, 6.0, size=2))
    z_i, vartheta = float(rng.uniform(1.0, 4.0)), float(rng.uniform(0.0, math.pi))
    squeezed = [  # points of the (nu_f, z_f) lattice grid, z_f up to 4
        (nu_i, z_i, float(nu_f), float(z_f), nu_b, vartheta)
        for nu_f, z_f in zip(rng.choice(LATTICE, size=n_squeezed), rng.choice(LATTICE[:13], size=n_squeezed))
    ]
    triples = [majorization_triple(rng, kind) for kind in range(3)]

    def run():
        forms = [single_mode_decompose(cm) for cm in initial_cms]
        out_plain = []
        for q in [(f.nu, f.z, *q[2:]) for f, q in zip(forms, queries)] + queries[n_forward:]:
            res = single_mode_feasible(TransformQuery(*q))
            out_plain.append((res.feasible, res.p))
        out_squeezed = []
        for q in squeezed:
            res = squeezed_bath_feasible(TransformQuery(*q))
            out_squeezed.append((res.feasible, res.p))
        out_cross = [cross_check(*t) for t in triples]
        return forms, out_plain, out_squeezed, out_cross

    def check(out):
        forms, out_plain, out_squeezed, out_cross = out
        ref_feasible, _ = refs.axis_verdicts(plain)
        problems = [f"generator: {plain[i].tolist()} drawn as feasible={bool(want_feasible[i])}, "
                    f"axis equations say {bool(ref_feasible[i])}"
                    for i in np.flatnonzero(ref_feasible != want_feasible)]
        for cm, f, (want_nu, want_z) in zip(initial_cms, forms, forward[:, :2]):
            problems += checks.single_mode_form(cm, f.nu, f.z, f.phi, want_nu, want_z)
        problems += checks.verdicts(plain, [f for f, _ in out_plain], [v for _, v in out_plain],
                                    want_feasible, want_p)
        for q, (feasible, p) in zip(squeezed, out_squeezed):
            problems += checks.squeezed_bath(q, feasible, p)
        for t, verdicts in zip(triples, out_cross):
            problems += checks.majorization(t, *verdicts)
        return problems

    return Op("batch", run, check)


class ReachabilityMap(Workload):
    """Batches of single-mode queries and majorization cross-checks."""

    salt = 2
    batches_per_round = 16

    def make_round(self, k):
        rng = self.rng(k)
        return [reachability_batch(rng) for _ in range(self.batches_per_round)]


# ------------------------------------------------------------- multimode-oracle

# One round: a channel case per mode count, then the frame case.  Seven
# operations put the median latency inside the n = 6 cases and the 90th
# percentile inside the n = 16 ones, never on a boundary between sizes.
MODE_COUNTS = (1, 3, 6, 6, 16, 16)


def hamiltonian(n: int, rng: np.random.Generator) -> tuple:
    """H = K diag(freqs) K^T with distinct frequencies at least 0.05 apart, one
    of them doubled when n > 1.  Returns (H, K, per-mode freqs descending).

    The normal-mode frame K is passive (orthogonal), so ``K^-T = K`` and the
    normal coordinates ``K^T r`` of the documented convention coincide with
    the ``K^-1 r`` gtokit uses; squeezed frames, where the two part, are the
    fixed :func:`frame_case`.
    """
    distinct = max(n - 1, 1)
    freqs = 0.5 + 0.05 * rng.choice(40, size=distinct, replace=False)
    if n > 1:
        freqs = np.append(freqs, freqs[rng.integers(distinct)])
    freqs = np.sort(freqs)[::-1]
    K = refs.passive(refs.haar_unitary(n, rng))
    H = (K * np.repeat(freqs, 2)) @ K.T
    return 0.5 * (H + H.T), K, freqs


def random_cm(n: int, rng: np.random.Generator) -> np.ndarray:
    S = refs.random_symplectic(n, rng)
    cm = (S * np.repeat(rng.uniform(1.0, 3.0, size=n), 2)) @ S.T
    return 0.5 * (cm + cm.T)


def random_blocks(mults, rng: np.random.Generator) -> list:
    """(Z, thetas, W) for sectors of the given sizes: Haar unitaries, angles in [0, pi/2]."""
    return [
        (refs.haar_unitary(d, rng), rng.uniform(0.0, math.pi / 2, size=d), refs.haar_unitary(d, rng))
        for d in mults
    ]


def normal_form_checks(spectrum, H, beta, freqs, blocks, gibbs_in, gibbs_out, cm, r, out) -> list:
    """The spectrum as drawn, the Gibbs state ``gibbs_in`` of H coming back as
    ``gibbs_out``, and ``out`` equal to the dilation's output on ``(cm, r)``."""
    sector_freqs, mults = np.unique(freqs, return_counts=True)
    problems = checks.spectrum(
        spectrum.S, [s.omega for s in spectrum.sectors], [s.multiplicity for s in spectrum.sectors],
        H, sector_freqs[::-1], mults[::-1],
    )
    if problems:
        return problems
    problems += checks.fixed_point(gibbs_in, gibbs_out)
    sectors = [
        (sec.omega, sec.mode_indices, Z, th, W)
        for sec, (Z, th, W) in zip(spectrum.sectors, blocks)
    ]
    want_cm, want_r = refs.sector_dilation(cm, r, spectrum.S, beta, sectors)
    problems += checks.matrices_agree("normal-form output cm", out.cm, want_cm)
    problems += checks.matrices_agree("normal-form output moments", out.first_moments, want_r)
    return problems


def channel_case(n: int, rng: np.random.Generator) -> Op:
    """Normal form through a Hamiltonian's spectrum, and the equal-bath dilation of
    a cosine-sine decomposed unitary, each checked against its dilation here."""
    H, K, freqs = hamiltonian(n, rng)
    beta = float(rng.uniform(0.3, 2.0))
    blocks = random_blocks(np.unique(freqs, return_counts=True)[1][::-1], rng)
    cm, r = random_cm(n, rng), rng.standard_normal(2 * n)
    U = refs.haar_unitary(2 * n, rng)
    om_b = float(rng.uniform(0.5, 2.0))
    nu_b = refs.coth_half(beta * om_b)
    want_gibbs = refs.gibbs_cm(K, [refs.coth_half(beta * f) for f in freqs])

    def run():
        ham = HamiltonianSpec(H)
        spectrum = normal_mode_spectrum(ham)
        spec = GTOSpec(spectrum, beta, [GTOSector(Z=Z, thetas=th, W=W) for Z, th, W in blocks])
        ch = gto_to_channel(spec)
        gibbs = thermal_state(beta, ham)
        out_gibbs = apply_channel(ch, gibbs)
        out = apply_channel(ch, GaussianState(n, r, cm))
        wf = williamson(out.cm)
        csf = cosine_sine_decompose(U)
        eq_spectrum = FrequencySpectrum(
            S=np.eye(2 * n), sectors=(FrequencySector(om_b, n, tuple(range(n))),)
        )
        eq_spec = GTOSpec(eq_spectrum, beta, [GTOSector(Z=csf.Z, thetas=csf.thetas, W=csf.W)])
        out_eq = apply_channel(gto_to_channel(eq_spec), GaussianState(n, r, cm))
        out_dil = dilate_and_trace(cm, unitary_to_passive(U), [nu_b] * n)
        return spectrum, gibbs, out_gibbs, out, wf, csf, out_eq, out_dil

    def check(res):
        spectrum, gibbs, out_gibbs, out, wf, csf, out_eq, out_dil = res
        problems = checks.matrices_agree("Gibbs state", gibbs.cm, want_gibbs)
        problems += normal_form_checks(spectrum, H, beta, freqs, blocks, gibbs.cm, out_gibbs.cm, cm, r, out)
        problems += checks.physical("normal-form output", out.cm)
        problems += checks.williamson_form(out.cm, wf.S, wf.nus)
        problems += checks.cosine_sine(U, csf.W, csf.X, csf.Z, csf.Y, csf.thetas)
        want_eq = refs.pinch(cm, U, [nu_b] * n)
        problems += checks.matrices_agree("equal-bath normal form", out_eq.cm, want_eq)
        problems += checks.matrices_agree("equal-bath dilate_and_trace", out_dil, want_eq)
        problems += checks.physical("equal-bath output", out_eq.cm)
        return problems

    return Op(f"n={n}", run, check)


# The frame case's inputs are drawn once from this seed, never from --seed.
FRAME_CASE_SEED = 20191113


def frame_case() -> Op:
    """A two-mode Hamiltonian in a squeezed normal-mode frame, the same on every run.

    It fails on every run: for ``H = S diag(omega) S^T`` gtokit's
    ``thermal_state`` returns ``S diag(nu) S^T`` and ``gto_to_channel`` acts on
    the coordinates ``S^-1 r``, but the Gibbs state of H is
    ``S^-T diag(nu) S^-1`` and its normal coordinates are ``S^T r``.  The
    thermal state is compared on its own, and the channel is checked on the
    Gibbs state of H, so a fix of either part shows.
    """
    rng = np.random.default_rng(FRAME_CASE_SEED)
    n, beta = 2, 0.8
    freqs = np.array([1.3, 0.7])
    stretch = np.array([2.0, 0.5, 1.5, 1.0 / 1.5])
    S = (refs.passive(refs.haar_unitary(n, rng)) * stretch) @ refs.passive(refs.haar_unitary(n, rng))
    H = (S * np.repeat(freqs, 2)) @ S.T
    H = 0.5 * (H + H.T)
    blocks = random_blocks([1, 1], rng)
    cm, r = random_cm(n, rng), rng.standard_normal(2 * n)
    want_gibbs = refs.gibbs_cm(S, [refs.coth_half(beta * f) for f in freqs])

    def run():
        ham = HamiltonianSpec(H)
        spectrum = normal_mode_spectrum(ham)
        ch = gto_to_channel(GTOSpec(spectrum, beta, [GTOSector(Z=Z, thetas=th, W=W) for Z, th, W in blocks]))
        gibbs = thermal_state(beta, ham)
        out_gibbs = apply_channel(ch, GaussianState(n, np.zeros(2 * n), want_gibbs))
        out = apply_channel(ch, GaussianState(n, r, cm))
        return spectrum, gibbs, out_gibbs, out

    def check(res):
        spectrum, gibbs, out_gibbs, out = res
        problems = checks.matrices_agree("thermal_state", gibbs.cm, want_gibbs)
        return problems + normal_form_checks(spectrum, H, beta, freqs, blocks, want_gibbs, out_gibbs.cm, cm, r, out)

    return Op("frame", run, check, known_fault=True)


class MultimodeOracle(Workload):
    """Channel cases at 1, 3, 6 and 16 modes, plus the fixed frame case."""

    salt = 3

    def make_round(self, k):
        rng = self.rng(k)
        return [channel_case(n, rng) for n in MODE_COUNTS] + [frame_case()]
