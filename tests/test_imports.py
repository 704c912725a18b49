"""gtokit runs on numpy alone, and its single-mode subcommands on no numpy.

scipy is a test-only reference: ``import gtokit`` must not load it, and
every subcommand must give the same output when scipy cannot be imported at
all.  ``feasible`` and protocol ``cool`` run on Python floats: ``import
gtokit, gtokit.cli`` must not load numpy, and those subcommands must give
the same output, exit code and message when numpy cannot be imported.  A
finder on ``sys.meta_path`` that refuses every module of a package stands in
for a missing package; each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gtokit

BLOCK_PACKAGE = """
import sys

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "{package}":
            raise ImportError(f"{package} is blocked: {{name}}")
        return None

sys.meta_path.insert(0, Block())
"""
BLOCK_SCIPY = BLOCK_PACKAGE.format(package="scipy")
BLOCK_NUMPY = BLOCK_PACKAGE.format(package="numpy")

# Reads [[argv, stdin], ...] on stdin, runs each through ``cli.main`` and
# prints [[exit code, stdout, stderr], ...] as JSON.
RUN_CASES = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from gtokit.cli import main

results = []
for argv, stdin in json.loads(sys.stdin.read()):
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def run_python(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(gtokit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )


def run_cases(cases: list, blocker: str = "") -> list:
    proc = run_python(blocker + RUN_CASES, json.dumps(cases))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


WORKED = {"nu_i": 2.0, "z_i": 4.0, "nu_f": 2.5, "z_f": 2.0, "nu_b": 2.0}
ONE_MODE = {"n_modes": 1, "first_moments": [0.3, -0.1], "cm": [[8.0, 0.0], [0.0, 0.5]]}
TWO_MODES = {
    "n_modes": 2,
    "first_moments": [0.5, 0.0, -1.0, 0.2],
    "cm": [[3.0, 0.4, 0.0, 0.0], [0.4, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 2.0]],
}


def complex_json(M) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


BEAM_SPLITTER = np.array([[np.cos(0.4), np.sin(0.4)], [-np.sin(0.4), np.cos(0.4)]]) * np.exp(0.3j)
TWO_MODE_GTO = {
    "spectrum": {
        "S": np.diag([2.0, 0.5, 1.0, 1.0]).tolist(),
        "sectors": [{"omega": 1.0, "multiplicity": 2, "mode_indices": [0, 1]}],
    },
    "beta": 0.8,
    "sectors": [
        {"Z": complex_json(BEAM_SPLITTER), "thetas": [0.3, 1.1], "W": complex_json(np.eye(2))}
    ],
}

# All seven subcommands, the decompositions included.
SCIPY_FREE_CASES = [
    [["validate"], json.dumps(TWO_MODES)],
    [["feasible"], json.dumps(WORKED)],
    [["feasible"], json.dumps(dict(WORKED, vartheta=0.7))],
    [["apply"], json.dumps({"state": ONE_MODE, "single_mode_gto": {"p": 0.5, "nu_b": 2.0}})],
    [["apply", "--oracle"], json.dumps({"state": TWO_MODES, "gto": TWO_MODE_GTO})],
    [["cool"], json.dumps({"nu0": 5, "nu_b": 2, "steps": [{"squeeze": 2, "rotate": 0.3, "p": 0.4}]})],
    [["cool", "--adversary", "10"], json.dumps({"nu0": 5, "nu_b": 2})],
    [["cool", "--sideband", "9.1"], json.dumps({"nu0": 2, "beta": 1.0986})],
    [["thermo-curve"], json.dumps({"beta_i": 1.2, "beta": 0.7, "E": 1.0})],
    [["decompose"], json.dumps({"cm": TWO_MODES["cm"]})],
    [["decompose"], json.dumps({"unitary": complex_json(np.kron(BEAM_SPLITTER, BEAM_SPLITTER))})],
    [["selftest", "--quick"], ""],
]


def test_importing_gtokit_loads_no_scipy():
    proc = run_python(
        "import json, sys, gtokit, gtokit.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_subcommand_runs_without_scipy():
    blocked = run_cases(SCIPY_FREE_CASES, BLOCK_SCIPY)
    free = run_cases(SCIPY_FREE_CASES)
    for (argv, _), got, want in zip(SCIPY_FREE_CASES, blocked, free):
        assert got == want, argv
    assert [code for code, _, _ in free] == [0] * len(SCIPY_FREE_CASES)


def test_the_decompositions_load_no_scipy():
    proc = run_python(
        RUN_CASES + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))",
        json.dumps([case for case in SCIPY_FREE_CASES if case[0][0] in ("decompose", "selftest")]),
    )
    assert proc.returncode == 0, proc.stderr
    results, loaded = proc.stdout.splitlines()
    assert [code for code, _, _ in json.loads(results)] == [0, 0, 0]
    assert json.loads(loaded) == []


def test_the_blocker_refuses_scipy():
    # Negative control: the blocker does stand in for a missing scipy.
    proc = run_python(BLOCK_SCIPY + "import scipy.linalg")
    assert proc.returncode != 0
    assert "scipy is blocked" in proc.stderr


def cool(payload: dict, *flags: str) -> list:
    return [["cool", *flags], json.dumps(payload)]


# (case, exit code): every ``feasible`` verdict and protocol ``cool`` output,
# and each refusal of protocol ``cool``.
SQUEEZE_STEPS = [{"squeeze": 2, "rotate": 0.3, "p": 0.4}, {"squeeze": 1.5, "p": 0.7, "phi": 1.1}]
UNITARY_STEPS = [{"unitary": [[0.5, 0.1], [-0.2, 1.96]], "p": 0.3, "phi": 1.1}, {"unitary": [[1, 0], [0, 1]], "p": 1}]
NUMPY_FREE_CASES = [
    ([["feasible"], json.dumps(WORKED)], 0),
    ([["feasible"], json.dumps(dict(WORKED, vartheta=0.7))], 0),
    ([["feasible"], json.dumps(dict(WORKED, nu_f=1.5))], 1),
    # The verdict's tolerance scales with nu_i z_i, the bounds' does not.
    ([["feasible"], json.dumps(
        {"nu_i": 2.0, "z_i": 100.0, "nu_f": 1.9999999259924925, "z_f": 100.00000374962552, "nu_b": 3.0})], 3),
    (cool({"nu0": 5, "nu_b": 2}), 0),
    (cool({"nu0": 5, "nu_b": 2, "z0": 1.7, "steps": SQUEEZE_STEPS}), 0),
    (cool({"nu0": 5, "nu_b": 2, "z0": 1.7, "steps": SQUEEZE_STEPS}, "--json"), 0),
    (cool({"nu0": 3, "nu_b": 2, "steps": UNITARY_STEPS}), 0),
    (cool({"nu0": 3, "nu_b": 2, "z0": 4, "steps": UNITARY_STEPS}, "--json"), 0),
    (cool({"nu0": 0.99999999, "nu_b": 2}), 2),  # below 1 - STRUCTURAL_TOL
    (cool({"nu0": 2, "nu_b": 2, "z0": 0}), 2),
    (cool({"nu0": 2, "nu_b": 2, "z0": -1.5}), 2),
    (cool({"nu0": 1e10, "nu_b": 2, "z0": 1e300}), 2),  # the entry nu0 z0 overflows
    (cool({"nu0": 2, "nu_b": 2, "steps": [{"squeeze": 1.5, "p": 0.5}, {"squeeze": 1e200, "p": 0.5}]}), 2),
    (cool({"nu0": 2, "nu_b": 2, "steps": [{"squeeze": 2, "p": 1.5}]}), 2),
    (cool({"nu0": 2, "nu_b": 2, "steps": [{"unitary": [[1, 0], [0, 1]], "p": -0.1}]}), 2),
    (cool({"nu0": 2, "nu_b": 2, "steps": [{"unitary": [[2, 0], [0, 1]], "p": 0.5}]}), 2),
    (cool({"nu0": 2, "nu_b": 2, "steps": [{"unitary": [1, 0, 0, 1], "p": 0.5}]}), 2),
    (cool({"nu0": 2, "nu_b": 2, "steps": [{"unitary": [[1, 0], [0]], "p": 0.5}]}), 2),
    (cool({"nu0": 2, "nu_b": 0.5}), 2),
]


def test_importing_gtokit_and_its_cli_loads_no_numpy():
    proc = run_python(
        "import json, sys, gtokit, gtokit.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_the_single_mode_subcommands_run_without_numpy():
    cases = [case for case, _ in NUMPY_FREE_CASES]
    blocked = run_cases(cases, BLOCK_NUMPY)
    free = run_cases(cases)
    for case, got, want in zip(cases, blocked, free):
        assert got == want, case
    assert [code for code, _, _ in free] == [code for _, code in NUMPY_FREE_CASES]
    assert all(err.startswith("error: ") for code, _, err in free if code == 2)


def test_the_blocker_refuses_numpy():
    # Negative control: the blocker does stand in for a missing numpy.
    proc = run_python(BLOCK_NUMPY + "import numpy")
    assert proc.returncode != 0
    assert "numpy is blocked" in proc.stderr
