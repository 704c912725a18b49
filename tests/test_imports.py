"""gtokit runs on numpy alone: scipy is a test-only reference.

``import gtokit`` must not load scipy, and every subcommand must give the
same output when scipy cannot be imported at all.  A finder on
``sys.meta_path`` that refuses every scipy module stands in for a missing
scipy; each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gtokit

BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
"""

# Reads [[argv, stdin], ...] on stdin, runs each through ``cli.main`` and
# prints [[exit code, stdout], ...] as JSON.
RUN_CASES = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from gtokit.cli import main

results = []
for argv, stdin in json.loads(sys.stdin.read()):
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def run_python(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(gtokit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )


def run_cases(cases: list, block_scipy: bool) -> list:
    proc = run_python((BLOCK_SCIPY if block_scipy else "") + RUN_CASES, json.dumps(cases))
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
    blocked = run_cases(SCIPY_FREE_CASES, block_scipy=True)
    free = run_cases(SCIPY_FREE_CASES, block_scipy=False)
    for (argv, _), got, want in zip(SCIPY_FREE_CASES, blocked, free):
        assert got == want, argv
    assert [code for code, _ in free] == [0] * len(SCIPY_FREE_CASES)


def test_the_decompositions_load_no_scipy():
    proc = run_python(
        RUN_CASES + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))",
        json.dumps([case for case in SCIPY_FREE_CASES if case[0][0] in ("decompose", "selftest")]),
    )
    assert proc.returncode == 0, proc.stderr
    results, loaded = proc.stdout.splitlines()
    assert [code for code, _ in json.loads(results)] == [0, 0, 0]
    assert json.loads(loaded) == []


def test_the_blocker_refuses_scipy():
    # Negative control: the blocker does stand in for a missing scipy.
    proc = run_python(BLOCK_SCIPY + "import scipy.linalg")
    assert proc.returncode != 0
    assert "scipy is blocked" in proc.stderr
