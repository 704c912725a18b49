"""The ``cli-oneshot`` workload: one ``python -m gtokit`` process per operation.

Each round runs the same mix of subcommands on freshly drawn inputs, one
child at a time.  The traced run calls ``gtokit.cli.main`` in process on the
same mix instead, because a child's layers are out of the tracer's reach.
"""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from . import checks, refs
from .workloads import LATTICE, Op, Workload, conditioned_inputs, hamiltonian, random_cm, random_steps

CHILD_TIMEOUT_S = 60


def _complex_json(M) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M)]


def _from_complex_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _parse_trace_csv(text: str) -> tuple:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return [float(r[1]) for r in rows], [float(r[2]) for r in rows], float(rows[0][3])


def _expect_exit(code: int, want: int) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def feasible_entry(query: dict, want_p):
    """``feasible`` on a reachable plain query; ``want_p`` is the reference witness."""

    def check(code, out):
        res = json.loads(out)
        q = [query[k] for k in ("nu_i", "z_i", "nu_f", "z_f", "nu_b")]
        return _expect_exit(code, 0) + checks.verdicts([q], [res["feasible"]], [res["p"]], [True], [want_p]) + (
            [] if all(res["bounds"].values()) else [f"necessary bounds fail: {res['bounds']}"]
        )

    return "feasible", [], query, check


def vartheta_entry(rng):
    nu_i, nu_b = (float(v) for v in rng.uniform(1.0, 6.0, size=2))
    q = (nu_i, float(rng.uniform(1.0, 4.0)), float(rng.choice(LATTICE)), float(rng.choice(LATTICE[:13])),
         nu_b, float(rng.uniform(0.0, math.pi)))
    payload = dict(zip(("nu_i", "z_i", "nu_f", "z_f", "nu_b", "vartheta"), q))

    def check(code, out):
        res = json.loads(out)
        return _expect_exit(code, 0 if res["feasible"] else 1) + checks.squeezed_bath(q, res["feasible"], res["p"])

    return "feasible", [], payload, check


def apply_entry(rng):
    """A 3-mode normal form with a degenerate frequency pair, through ``--oracle``."""
    n = 3
    _, S, freqs = hamiltonian(n, rng)
    beta = float(rng.uniform(0.3, 2.0))
    sector_freqs, mults = np.unique(freqs, return_counts=True)
    sectors, start = [], 0
    for om, d in zip(sector_freqs[::-1], mults[::-1]):
        d = int(d)
        sectors.append((float(om), tuple(range(start, start + d)), refs.haar_unitary(d, rng),
                        rng.uniform(0.0, math.pi / 2, size=d), refs.haar_unitary(d, rng)))
        start += d
    cm, r = random_cm(n, rng), rng.standard_normal(2 * n)
    payload = {
        "state": {"n_modes": n, "first_moments": r.tolist(), "cm": cm.tolist()},
        "gto": {
            "spectrum": {
                "S": S.tolist(),
                "sectors": [{"omega": om, "multiplicity": len(m), "mode_indices": list(m)}
                            for om, m, _, _, _ in sectors],
            },
            "beta": beta,
            "sectors": [{"Z": _complex_json(Z), "thetas": th.tolist(), "W": _complex_json(W)}
                        for _, _, Z, th, W in sectors],
        },
    }

    def check(code, out):
        res = json.loads(out)
        want_cm, want_r = refs.sector_dilation(cm, r, S, beta, sectors)
        problems = _expect_exit(code, 0)
        if not res["oracle_max_deviation"] <= checks.MATRIX_TOL:
            problems.append(f"oracle deviation {res['oracle_max_deviation']:.2e}")
        problems += checks.matrices_agree("cli apply cm", np.array(res["cm"]), want_cm)
        problems += checks.matrices_agree("cli apply moments", np.array(res["first_moments"]), want_r)
        return problems + checks.physical("cli apply output", np.array(res["cm"]))

    return "apply", ["--oracle"], payload, check


def protocol_entry(rng):
    nu0, nu_b = (float(v) for v in rng.uniform(1.0, 6.0, size=2))
    steps = random_steps(rng, 4)
    payload = {"nu0": nu0, "nu_b": nu_b,
               "steps": [dict(zip(("squeeze", "rotate", "p", "phi"), s)) for s in steps]}

    def check(code, out):
        nus, ents, bound = _parse_trace_csv(out)
        return _expect_exit(code, 0) + checks.protocol_trace(nus, ents, bound, code == 3, nu0, nu_b, steps)

    return "cool", [], payload, check


def adversary_entry():
    nu0, nu_b, rounds = 5.0, 2.0, 10  # a panel case that passes

    def check(code, out):
        nus, _, _ = _parse_trace_csv(out)
        return _expect_exit(code, 0) + checks.adversary_trace(nus, code == 3, nu0, nu_b, rounds)

    return "cool", ["--adversary", str(rounds)], {"nu0": nu0, "nu_b": nu_b}, check


def sideband_entry(rng):
    nu0, beta, om = float(rng.uniform(1.0, 6.0)), float(rng.uniform(0.5, 2.0)), float(rng.uniform(4.0, 16.0))
    nu_a = refs.coth_half(beta * om)

    def check(code, out):
        res = json.loads(out)
        problems = _expect_exit(code, 0)
        for key in ("nu_achieved", "nu_ancilla"):
            if not abs(res[key] - nu_a) <= 1e-12:
                problems.append(f"sideband {key} {res[key]!r}, ancilla value {nu_a!r}")
        if not abs(res["entropy"] - refs.entropy(nu_a)) <= 1e-12:
            problems.append(f"sideband entropy {res['entropy']!r}")
        return problems + checks.matrices_agree("sideband state", np.array(res["state"]["cm"]), nu_a * np.eye(2))

    return "cool", ["--sideband", repr(om)], {"nu0": nu0, "beta": beta}, check


def thermo_curve_entry(rng):
    beta_i, beta = (float(v) for v in rng.uniform(0.4, 2.5, size=2))
    E = float(rng.uniform(0.6, 1.8))
    N = math.ceil(28.0 / (min(beta_i, beta) * E))

    def check(code, out):
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        return _expect_exit(code, 0) + checks.matrices_agree(
            "thermo-curve", np.array(rows), refs.thermo_curve(beta_i, beta, E, N))

    return "thermo-curve", [], {"beta_i": beta_i, "beta": beta, "E": E, "N": N}, check


def decompose_cm_entry(rng):
    nu, z = float(rng.uniform(1.0, 3.0)), float(rng.uniform(1.0, 4.0))
    cm = refs.single_mode_cm(nu, z, float(rng.uniform(0.0, math.pi)))

    def check(code, out):
        res = json.loads(out)
        nf = res["normal_form"]
        problems = _expect_exit(code, 0) + checks.williamson_form(cm, np.array(res["S"]), np.array(res["nus"]))
        return problems + checks.single_mode_form(cm, nf["nu"], nf["z"], nf["phi"], nu, z)

    return "decompose", [], {"cm": cm.tolist()}, check


def decompose_unitary_entry(rng):
    U = refs.haar_unitary(4, rng)

    def check(code, out):
        res = json.loads(out)
        blocks = [_from_complex_json(res[k]) for k in ("W", "X", "Z", "Y")]
        return _expect_exit(code, 0) + checks.cosine_sine(U, *blocks, np.array(res["thetas"]))

    return "decompose", [], {"unitary": _complex_json(U)}, check


def validate_entry(rng, physical_state: bool):
    n = 2 if physical_state else 1
    S = refs.random_symplectic(n, rng)
    nus = rng.uniform(1.0, 3.0, size=n) if physical_state else rng.uniform(0.3, 0.9, size=n)
    cm = (S * np.repeat(nus, 2)) @ S.T
    cm = 0.5 * (cm + cm.T)

    def check(code, out):
        res = json.loads(out)
        if not physical_state:
            return _expect_exit(code, 1) + ([] if res["valid"] is False else ["unphysical state validated"])
        problems = _expect_exit(code, 0) + ([] if res["valid"] else ["physical state refused"])
        return problems + checks.matrices_agree(
            "validate eigenvalues", np.array(res["symplectic_eigenvalues"]), np.sort(nus)[::-1])

    return "validate", [], {"n_modes": n, "first_moments": [0.0] * (2 * n), "cm": cm.tolist()}, check


def selftest_entry():
    def check(code, out):
        lines = out.strip().splitlines()
        return _expect_exit(code, 0) + ([] if lines and lines[-1] == "all suites passed" else ["selftest failed"])

    return "selftest", ["--quick"], None, check


def gtokit_env(root: str) -> dict:
    """This process's environment with the checkout's ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.join(root, "src"), env.get("PYTHONPATH"))))
    return env


def run_child(root: str, argv: list, stdin: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-m", "gtokit", *argv], input=stdin, capture_output=True, text=True,
        env=gtokit_env(root), cwd=root, timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_in_process(argv: list, stdin: str) -> tuple:
    from gtokit import cli

    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def mix(rng) -> list:
    """(subcommand, extra args, payload, check(exit code, stdout)) for one round."""
    entries = [feasible_entry({"nu_i": 2.0, "z_i": 4.0, "nu_f": 2.5, "z_f": 2.0, "nu_b": 2.0}, 0.5)]
    for _ in range(2):
        nu_i, z_i, nu_b = conditioned_inputs(rng, 1)[0].tolist()
        p = float(rng.uniform(0.0, 1.0))
        nu_f, z_f = (float(v) for v in refs.forward_target(nu_i, z_i, nu_b, p))
        entries.append(feasible_entry({"nu_i": nu_i, "z_i": z_i, "nu_f": nu_f, "z_f": z_f, "nu_b": nu_b}, p))
    entries += [
        vartheta_entry(rng),
        apply_entry(rng),
        protocol_entry(rng),
        adversary_entry(),
        sideband_entry(rng),
        thermo_curve_entry(rng),
        decompose_cm_entry(rng),
        decompose_unitary_entry(rng),
        validate_entry(rng, True),
        validate_entry(rng, False),
        selftest_entry(),
    ]
    return entries


class CliOneshot(Workload):
    """The subcommand mix, one child process per operation (or in process)."""

    salt = 4

    def __init__(self, seed: int, root: str, in_process: bool = False):
        super().__init__(seed)
        self.root = root
        self.in_process = in_process

    def make_round(self, k):
        ops = []
        for sub, extra, payload, check in mix(self.rng(k)):
            argv = [sub, *extra]
            stdin = "" if payload is None else json.dumps(payload)
            if self.in_process:
                run = lambda argv=argv, stdin=stdin: run_in_process(argv, stdin)
            else:
                run = lambda argv=argv, stdin=stdin: run_child(self.root, argv, stdin)
            ops.append(Op(sub, run, lambda res, check=check: _checked(check, res)))
        return ops


def _checked(check, res) -> list:
    code, out = res
    try:
        return check(code, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output (exit {code}): {exc!r}: {out[:200]!r}"]
