import argparse
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gtokit import symplectic
from gtokit.cli import _build_parser, main
from gtokit.symplectic import random_unitary

LN3 = 1.0986122886681098
# 1/tanh(5): thermal symplectic eigenvalue at beta*omega = 10
NU_AT_10 = 1.0000908039820194


def to_complex_json(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M, dtype=complex)]


def from_complex_json(rows):
    return np.array([[complex(a, b) for a, b in row] for row in rows])


def write_payload(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(tmp_path, argv, payload):
    """Run the CLI on a payload file, returning (exit_code, parsed_output)."""
    in_path = write_payload(tmp_path, payload)
    out_path = str(tmp_path / "out.json")
    rc = main(argv + ["--input", in_path, "--output", out_path])
    with open(out_path) as fh:
        return rc, json.load(fh)


def run_text(tmp_path, argv, payload):
    in_path = write_payload(tmp_path, payload)
    out_path = str(tmp_path / "out.txt")
    rc = main(argv + ["--input", in_path, "--output", out_path])
    with open(out_path) as fh:
        return rc, fh.read()


def assert_refused(tmp_path, capsys, argv, payload):
    """The CLI exits 2 with an ``error:`` line and prints nothing on stdout; returns stderr."""
    in_path = write_payload(tmp_path, payload)
    assert main(argv + ["--input", in_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    return captured.err


# Symmetric only to within 5e-9: physical at --tol-structural 1e-6 and at
# the channel tolerance 1e-8, not at the structural default 1e-9.
NEARLY_SYMMETRIC = [[2.0, 0.1 + 5e-9], [0.1, 1.0]]


def state_payload(cm, first_moments=None):
    cm = np.asarray(cm, dtype=float)
    n = cm.shape[0] // 2
    r = np.zeros(2 * n) if first_moments is None else np.asarray(first_moments)
    return {"n_modes": n, "first_moments": r.tolist(), "cm": cm.tolist()}


class TestValidate:
    def test_valid_state(self, tmp_path):
        rc, out = run_json(tmp_path, ["validate"], state_payload(2.0 * np.eye(2)))
        assert rc == 0
        assert out["valid"] is True
        assert out["symplectic_eigenvalues"] == pytest.approx([2.0])

    def test_invalid_state(self, tmp_path):
        rc, out = run_json(tmp_path, ["validate"], state_payload(0.5 * np.eye(2)))
        assert rc == 1
        assert out["valid"] is False

    def test_structural_tolerance_reaches_the_eigenvalues(self, tmp_path):
        argv = ["validate", "--tol-structural", "1e-6"]
        rc, out = run_json(tmp_path, argv, state_payload(NEARLY_SYMMETRIC))
        assert rc == 0
        assert out["valid"] is True
        assert out["symplectic_eigenvalues"] == pytest.approx([math.sqrt(1.99)], rel=1e-8)

    def test_eigenvalues_computed_once(self, tmp_path, monkeypatch):
        # every symplectic_eigenvalues call checks its input once with _check_spd
        calls = []
        real = symplectic._check_spd
        monkeypatch.setattr(symplectic, "_check_spd", lambda *a: calls.append(a) or real(*a))
        rc, out = run_json(tmp_path, ["validate"], state_payload(2.0 * np.eye(2)))
        assert rc == 0
        assert out["symplectic_eigenvalues"] == pytest.approx([2.0], rel=1e-15)
        assert len(calls) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--input", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 2


class TestFeasible:
    WORKED = {"nu_i": 2.0, "z_i": 4.0, "nu_f": 2.5, "z_f": 2.0, "nu_b": 2.0}

    def test_worked_example(self, tmp_path):
        rc, out = run_json(tmp_path, ["feasible"], self.WORKED)
        assert rc == 0
        assert out["feasible"] is True
        assert out["p"] == pytest.approx(0.5, abs=1e-10)
        assert out["bounds"] == {"nu_f>=min(nu_i,nu_b)": True, "z_f<=z_i": True}

    def test_infeasible_exits_one(self, tmp_path):
        payload = {"nu_i": 3.0, "z_i": 1.0, "nu_f": 1.5, "z_f": 1.0, "nu_b": 2.0}
        rc, out = run_json(tmp_path, ["feasible"], payload)
        assert rc == 1
        assert out["feasible"] is False
        assert out["reason"] == "p-out-of-range"
        assert out["bounds"]["nu_f>=min(nu_i,nu_b)"] is False

    def test_squeezed_bath_route(self, tmp_path):
        payload = dict(self.WORKED, vartheta=0.0)
        rc, out = run_json(tmp_path, ["feasible"], payload)
        assert rc == 0
        assert out["p"] == pytest.approx(0.5, abs=1e-8)

    def test_bounds_use_the_feasibility_tolerance(self, tmp_path):
        payload = {"nu_i": 3.0, "z_i": 1.0, "nu_f": 1.9999, "z_f": 1.0, "nu_b": 2.0}
        rc, out = run_json(tmp_path, ["feasible", "--tol-feasibility", "1e-3"], payload)
        assert rc == 0
        assert out["feasible"] is True
        assert out["bounds"] == {"nu_f>=min(nu_i,nu_b)": True, "z_f<=z_i": True}

    def test_missing_key_exits_two(self, tmp_path, capsys):
        in_path = write_payload(tmp_path, {"nu_i": 2.0})
        assert main(["feasible", "--input", in_path]) == 2

    def test_invalid_parameter_exits_two(self, tmp_path, capsys):
        in_path = write_payload(tmp_path, dict(self.WORKED, nu_i=0.2))
        assert main(["feasible", "--input", in_path]) == 2


def one_mode_gto_payload(theta, beta=LN3, phi=0.0):
    return {
        "spectrum": {
            "S": np.eye(2).tolist(),
            "sectors": [{"omega": 1.0, "multiplicity": 1, "mode_indices": [0]}],
        },
        "beta": beta,
        "sectors": [
            {
                "Z": to_complex_json([[np.exp(1j * phi)]]),
                "thetas": [theta],
                "W": to_complex_json([[1.0]]),
            }
        ],
    }


class TestApply:
    def test_single_mode_gto_worked_example(self, tmp_path):
        payload = {
            "state": state_payload(np.diag([8.0, 0.5])),
            "single_mode_gto": {"p": 0.5, "nu_b": 2.0},
        }
        rc, out = run_json(tmp_path, ["apply"], payload)
        assert rc == 0
        assert_allclose(out["cm"], np.diag([5.0, 1.25]), atol=1e-12)

    def test_explicit_channel_payload(self, tmp_path):
        payload = {
            "state": state_payload(np.diag([8.0, 0.5]), [1.0, -2.0]),
            "channel": {
                "X": np.zeros((2, 2)).tolist(),
                "Y": (2.0 * np.eye(2)).tolist(),
                "d": [0.5, 0.5],
            },
        }
        rc, out = run_json(tmp_path, ["apply"], payload)
        assert rc == 0
        assert_allclose(out["cm"], 2.0 * np.eye(2))
        assert_allclose(out["first_moments"], [0.5, 0.5])

    def test_gto_payload_with_oracle(self, tmp_path):
        payload = {
            "state": state_payload(np.diag([8.0, 0.5])),
            "gto": one_mode_gto_payload(theta=math.acos(math.sqrt(0.5))),
        }
        rc, out = run_json(tmp_path, ["apply", "--oracle"], payload)
        assert rc == 0
        assert out["oracle_max_deviation"] <= 1e-8
        assert_allclose(out["cm"], np.diag([5.0, 1.25]), atol=1e-10)

    def test_state_check_runs_at_the_channel_tolerance(self, tmp_path):
        payload = {"state": state_payload(NEARLY_SYMMETRIC), "single_mode_gto": {"p": 0.5, "nu_b": 2.0}}
        rc, out = run_json(tmp_path, ["apply"], payload)
        assert rc == 0
        cm = np.array(NEARLY_SYMMETRIC)
        assert_allclose(out["cm"], 0.25 * (cm + cm.T) + np.eye(2), rtol=0, atol=1e-15)

    def test_oracle_refuses_a_frame_that_is_not_symplectic(self, tmp_path, capsys):
        gto = one_mode_gto_payload(theta=math.pi / 2)
        gto["spectrum"]["S"] = (2.0 * np.eye(2)).tolist()
        payload = {"state": state_payload(2.0 * np.eye(2)), "gto": gto}
        assert_refused(tmp_path, capsys, ["apply", "--oracle"], payload)

    def test_oracle_needs_gto_payload(self, tmp_path, capsys):
        payload = {
            "state": state_payload(2.0 * np.eye(2)),
            "single_mode_gto": {"p": 0.5, "nu_b": 2.0},
        }
        in_path = write_payload(tmp_path, payload)
        assert main(["apply", "--oracle", "--input", in_path]) == 2

    def test_missing_channel_exits_two(self, tmp_path, capsys):
        in_path = write_payload(tmp_path, {"state": state_payload(2.0 * np.eye(2))})
        assert main(["apply", "--input", in_path]) == 2

    def test_scalar_x_exits_two(self, tmp_path, capsys):
        payload = {
            "state": state_payload(2.0 * np.eye(2)),
            "channel": {"X": 1.0, "Y": np.zeros((2, 2)).tolist(), "d": [0.0, 0.0]},
        }
        assert_refused(tmp_path, capsys, ["apply"], payload)

    def test_noncp_channel_exits_two(self, tmp_path, capsys):
        payload = {
            "state": state_payload(2.0 * np.eye(2)),
            "channel": {
                "X": np.eye(2).tolist(),
                "Y": (-0.5 * np.eye(2)).tolist(),
                "d": [0.0, 0.0],
            },
        }
        in_path = write_payload(tmp_path, payload)
        assert main(["apply", "--input", in_path]) == 2


class TestCool:
    def test_protocol_csv(self, tmp_path):
        payload = {"nu0": 5.0, "nu_b": 2.0, "steps": [{"p": 0.0}]}
        rc, text = run_text(tmp_path, ["cool"], payload)
        assert rc == 0
        lines = text.strip().splitlines()
        assert lines[0] == "step,nu,entropy,bound"
        assert len(lines) == 3
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(2.0)

    def test_protocol_accepts_param_steps(self, tmp_path):
        payload = {
            "nu0": 3.0,
            "z0": 1.5,
            "nu_b": 2.0,
            "steps": [{"squeeze": 1.2, "rotate": 0.4, "p": 0.6, "phi": 0.1}] * 3,
        }
        rc, out = run_json(tmp_path, ["cool", "--json"], payload)
        assert rc == 0
        assert out["violated"] is False
        assert len(out["steps"]) == 4
        assert min(nu for nu, _ in out["steps"]) >= 2.0 - 1e-9

    def test_adversary_respects_floor(self, tmp_path):
        payload = {"nu0": 5.0, "nu_b": 2.0}
        rc, out = run_json(tmp_path, ["cool", "--adversary", "5", "--json"], payload)
        assert rc == 0
        assert out["violated"] is False
        nus = [nu for nu, _ in out["steps"]]
        assert len(nus) == 6
        assert min(nus) >= 2.0 - 1e-6

    def test_sideband(self, tmp_path):
        payload = {"nu0": 2.0, "beta": LN3}
        omega = 10.0 / LN3
        rc, out = run_json(tmp_path, ["cool", "--sideband", repr(omega)], payload)
        assert rc == 0
        assert out["nu_achieved"] == pytest.approx(NU_AT_10, abs=1e-12)
        assert out["nu_ancilla"] == pytest.approx(NU_AT_10, abs=1e-12)
        assert_allclose(out["state"]["cm"], NU_AT_10 * np.eye(2), atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_adversary_refuses_an_overflowing_start(self, tmp_path, capsys):
        # det(1e200 * identity) overflows, so the initial eigenvalue is inf
        assert_refused(tmp_path, capsys, ["cool", "--adversary", "2"], {"nu0": 1e200, "nu_b": 2.0})

    @pytest.mark.parametrize(
        "argv, payload",
        [(["cool"], {"nu0": 2.0, "nu_b": 2.0}), (["cool", "--sideband", "3"], {"nu0": 2.0, "beta": 1.0})],
        ids=["protocol", "sideband"],
    )
    @pytest.mark.parametrize("z0", [0.0, -2.0])
    def test_non_positive_squeeze_exits_two(self, tmp_path, capsys, argv, payload, z0):
        # z0 = 0 once died in 1 / z0 with a traceback and exit 1
        err = assert_refused(tmp_path, capsys, argv, dict(payload, z0=z0))
        assert "squeeze factor must be positive" in err

    def test_sideband_refuses_an_unphysical_start(self, tmp_path, capsys):
        err = assert_refused(tmp_path, capsys, ["cool", "--sideband", "3"], {"nu0": 0.2, "beta": 1.0})
        assert "initial state has an invalid covariance matrix" in err

    @pytest.mark.parametrize("rounds", ["0", "-3"])
    def test_adversary_rounds_below_one_name_the_flag(self, tmp_path, capsys, rounds):
        err = assert_refused(tmp_path, capsys, ["cool", "--adversary", rounds], {"nu0": 5.0, "nu_b": 2.0})
        assert f"--adversary must be >= 1, got {rounds}" in err

    def test_sideband_and_adversary_are_exclusive(self, tmp_path, capsys):
        # --sideband once silently overrode --adversary and --json
        in_path = write_payload(tmp_path, {"nu0": 2.0, "beta": 1.0, "nu_b": 2.0})
        with pytest.raises(SystemExit) as exc:
            main(["cool", "--sideband", "3", "--adversary", "5", "--json", "--input", in_path])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_sideband_refuses_json(self, tmp_path, capsys):
        err = assert_refused(tmp_path, capsys, ["cool", "--sideband", "3", "--json"], {"nu0": 2.0, "beta": 1.0})
        assert "--json does not apply to --sideband" in err

    @pytest.mark.parametrize("key, value", [("z0", 4.0), ("steps", [{"p": 0.5}])])
    def test_adversary_refuses_keys_it_does_not_read(self, tmp_path, capsys, key, value):
        # the adversary starts from nu0 * identity, so a squeezed z0 once gave the unsqueezed trace
        payload = {"nu0": 2.0, "nu_b": 3.0, key: value}
        err = assert_refused(tmp_path, capsys, ["cool", "--adversary", "3"], payload)
        assert f"reads no '{key}' key" in err

    def test_missing_nu_b_exits_two(self, tmp_path, capsys):
        in_path = write_payload(tmp_path, {"nu0": 5.0})
        assert main(["cool", "--input", in_path]) == 2

    @pytest.mark.parametrize("nu0, nu_b", [(1.5, 3.0), (3.0, 1.5), (1.2, 5.0)])
    def test_adversary_ties_keep_the_floor(self, tmp_path, nu0, nu_b):
        # At p = 1 every unitary ties; breaking the tie towards squeezing once
        # compounded over 40 rounds until the trace claimed a violated floor.
        rc, out = run_json(tmp_path, ["cool", "--adversary", "40", "--json"], {"nu0": nu0, "nu_b": nu_b})
        assert rc == 0
        assert out["violated"] is False
        assert min(nu for nu, _ in out["steps"]) >= min(nu0, nu_b) - 1e-9


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["feasible"], '{"nu_i": NaN, "z_i": 4, "nu_f": 2.5, "z_f": 2, "nu_b": 2}'),
            (["feasible"], '{"nu_i": Infinity, "z_i": 4, "nu_f": 2.5, "z_f": 2, "nu_b": 2}'),
            (["feasible"], '{"nu_i": 2, "z_i": 4, "nu_f": -Infinity, "z_f": 2, "nu_b": 2}'),
            (["cool", "--adversary", "3"], '{"nu0": NaN, "nu_b": 2}'),
            # numbers that overflow a double
            pytest.param(
                ["apply"],
                '{"state": {"n_modes": 1, "first_moments": [0, 0], "cm": [[2, 0], [0, 2]]}, '
                '"channel": {"X": [[1, 0], [0, 1]], "Y": [[0, 0], [0, 0]], "d": [1e309, 0]}}',
                id="apply-1e309",
            ),
            pytest.param(["thermo-curve"], '{"beta_i": 1e309, "beta": 0.7, "E": 1.0}', id="thermo-curve-1e309"),
            pytest.param(
                ["feasible"],
                '{"nu_i": 1' + "0" * 400 + ', "z_i": 4, "nu_f": 2.5, "z_f": 2, "nu_b": 2}',
                id="feasible-401-digit-int",
            ),
        ],
    )
    def test_refused_at_parse(self, tmp_path, capsys, argv, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert main(argv + ["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestThermoCurve:
    def test_csv_endpoints(self, tmp_path):
        payload = {"beta_i": 1.2, "beta": 0.7, "E": 1.0}
        rc, text = run_text(tmp_path, ["thermo-curve"], payload)
        assert rc == 0
        lines = text.strip().splitlines()
        assert lines[0] == "x,y"
        assert [float(v) for v in lines[1].split(",")] == [0.0, 0.0]
        final = [float(v) for v in lines[-1].split(",")]
        assert final == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_explicit_cutoff(self, tmp_path):
        payload = {"beta_i": 1.0, "beta": 0.8, "E": 1.0, "N": 45}
        rc, text = run_text(tmp_path, ["thermo-curve"], payload)
        assert rc == 0
        assert len(text.strip().splitlines()) == 1 + 45 + 1  # header + breakpoints

    @pytest.mark.parametrize(
        "payload",
        [{"beta_i": 1.0, "beta": 0.7, "E": 0}, {"beta_i": 0, "beta": 0.7, "E": 1.0}],
        ids=["E=0", "beta_i=0"],
    )
    def test_zero_parameter_exits_two(self, tmp_path, capsys, payload):
        assert_refused(tmp_path, capsys, ["thermo-curve"], payload)

    def test_inadequate_cutoff_exits_two(self, tmp_path, capsys):
        in_path = write_payload(tmp_path, {"beta_i": 1.0, "beta": 0.8, "E": 1.0, "N": 10})
        assert main(["thermo-curve", "--input", in_path]) == 2


class TestDecompose:
    def test_covariance_matrix(self, tmp_path):
        rc, out = run_json(tmp_path, ["decompose"], {"cm": np.diag([8.0, 0.5]).tolist()})
        assert rc == 0
        assert out["nus"] == pytest.approx([2.0])
        nf = out["normal_form"]
        assert nf["nu"] == pytest.approx(2.0)
        assert nf["z"] == pytest.approx(4.0)
        assert nf["phi"] == pytest.approx(0.0)

    def test_unitary(self, tmp_path):
        U = random_unitary(2, 5)
        rc, out = run_json(tmp_path, ["decompose"], {"unitary": to_complex_json(U)})
        assert rc == 0
        W = from_complex_json(out["W"])
        X = from_complex_json(out["X"])
        Z = from_complex_json(out["Z"])
        Y = from_complex_json(out["Y"])
        thetas = np.asarray(out["thetas"])
        assert thetas.shape == (1,)
        C = np.diag(np.cos(thetas))
        S = np.diag(np.sin(thetas))
        left = np.block([[W, np.zeros((1, 1))], [np.zeros((1, 1)), X]])
        mid = np.block([[C, S], [-S, C]])
        right = np.block([[Z, np.zeros((1, 1))], [np.zeros((1, 1)), Y]])
        assert_allclose(left @ mid @ right, U, atol=1e-9)

    def test_needs_a_recognized_key(self, tmp_path, capsys):
        in_path = write_payload(tmp_path, {"matrix": [[1.0]]})
        assert main(["decompose", "--input", in_path]) == 2


class TestSelftest:
    def test_quick_run_passes(self, capsys):
        assert main(["selftest", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ": PASS" in ln]
        assert len(lines) == 7
        assert "all suites passed" in out

    def test_a_suite_that_raises_fails_the_run(self, capsys, monkeypatch):
        from gtokit import selftest

        def refuse(*args, **kwargs):
            raise ValueError("planted refusal")

        monkeypatch.setattr(selftest, "williamson", refuse)
        assert main(["selftest", "--quick", "--seed", "3"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(":")[0] for ln in lines] == list(selftest._SUITES)
        assert lines[1] == "williamson-roundtrip: FAIL - raised ValueError: planted refusal"
        assert sum(": PASS - " in ln for ln in lines) == 6

    def test_deterministic_given_seed(self, capsys):
        main(["selftest", "--quick", "--seed", "11"])
        first = capsys.readouterr().out
        main(["selftest", "--quick", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second


# The options each subcommand reads; argparse refuses any other.
READS = {
    "validate": {"--input", "--output", "--tol-structural"},
    "feasible": {"--input", "--output", "--tol-feasibility"},
    "apply": {"--input", "--output", "--tol-channel", "--oracle"},
    "cool": {"--input", "--output", "--adversary", "--sideband", "--json"},
    "thermo-curve": {"--input", "--output"},
    "decompose": {"--input", "--output", "--tol-structural"},
    "selftest": {"--seed", "--quick"},
}
# Options an earlier parser put on every subcommand, whether it read them or not.
FORMERLY_SHARED = ("--input", "--output", "--seed", "--tol-structural", "--tol-channel", "--tol-feasibility")
UNREAD = [(sub, flag) for sub in READS for flag in FORMERLY_SHARED if flag not in READS[sub]]
# A payload each subcommand answers with exit 0.
VALID_PAYLOADS = {
    "validate": state_payload(2.0 * np.eye(2)),
    "feasible": TestFeasible.WORKED,
    "apply": {"state": state_payload(2.0 * np.eye(2)), "single_mode_gto": {"p": 0.5, "nu_b": 2.0}},
    "cool": {"nu0": 5.0, "nu_b": 2.0, "steps": [{"p": 0.5}]},
    "thermo-curve": {"beta_i": 1.2, "beta": 0.7, "E": 1.0},
    "decompose": {"cm": np.diag([8.0, 0.5]).tolist()},
}


class TestOptions:
    def test_each_subcommand_accepts_exactly_what_it_reads(self):
        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {
            name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert accepted == READS
        assert sum(map(len, accepted.values())) == 22
        assert len(UNREAD) == 47 - 22  # every option accepted before, less those read

    @pytest.mark.parametrize("sub, flag", UNREAD, ids=[f"{s}{f}" for s, f in UNREAD])
    def test_an_unread_flag_is_refused(self, tmp_path, capsys, sub, flag):
        in_path = write_payload(tmp_path, VALID_PAYLOADS.get(sub, {}))
        out_path = tmp_path / "F"
        value = {"--input": in_path, "--output": str(out_path), "--seed": "3"}.get(flag, "1e-5")
        argv = ["selftest", "--quick"] if sub == "selftest" else [sub, "--input", in_path]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not out_path.exists()


# Payloads each subcommand and mode answers with exit 0.  Every key in them is
# read; the paths name the objects nested in each payload.
STATE = state_payload(2.0 * np.eye(2))
STEPS = [
    {"squeeze": 1.2, "rotate": 0.4, "p": 0.6, "phi": 0.1},
    {"unitary": np.eye(2).tolist(), "p": 0.5, "phi": 0.2},
]
MODES = {
    "validate": (["validate"], STATE, []),
    "feasible": (["feasible"], TestFeasible.WORKED, []),
    "feasible-vartheta": (["feasible"], dict(TestFeasible.WORKED, vartheta=0.0), []),
    "apply-channel": (
        ["apply"],
        {"state": STATE, "channel": {"X": np.eye(2).tolist(), "Y": [[0, 0], [0, 0]], "d": [0, 0]}},
        [["state"], ["channel"]],
    ),
    "apply-single_mode_gto": (
        ["apply"],
        {"state": STATE, "single_mode_gto": {"p": 0.5, "nu_b": 2.0, "phi": 0.3, "S": [[2, 0], [0, 0.5]]}},
        [["single_mode_gto"]],
    ),
    "apply-gto": (
        ["apply", "--oracle"],
        {"state": STATE, "gto": one_mode_gto_payload(theta=0.4, phi=0.2)},
        [["gto"], ["gto", "spectrum"], ["gto", "spectrum", "sectors", 0], ["gto", "sectors", 0]],
    ),
    "cool": (["cool"], {"nu0": 3.0, "z0": 1.5, "nu_b": 2.0, "steps": STEPS}, [["steps", 0], ["steps", 1]]),
    "cool-adversary": (["cool", "--adversary", "3"], {"nu0": 5.0, "nu_b": 2.0}, []),
    "cool-sideband": (["cool", "--sideband", "3"], {"nu0": 2.0, "z0": 1.5, "beta": 1.0}, []),
    "thermo-curve": (["thermo-curve"], {"beta_i": 1.0, "beta": 0.8, "E": 1.0, "N": 45}, []),
    "decompose-cm": (["decompose"], {"cm": np.diag([8.0, 0.5]).tolist()}, []),
    "decompose-unitary": (["decompose"], {"unitary": to_complex_json(random_unitary(2, 5))}, []),
}
OBJECTS = [(mode, path) for mode, (_, _, paths) in MODES.items() for path in [[]] + paths]


def with_key(payload, path, key, value):
    """A deep copy of ``payload`` with ``key: value`` added to the object at ``path``."""
    payload = json.loads(json.dumps(payload))
    obj = payload
    for step in path:
        obj = obj[step]
    obj[key] = value
    return payload


SIDEBAND = ["cool", "--sideband", "3"]
THERMO = {"beta_i": 1.0, "beta": 0.8, "E": 1.0}


class TestPayloadKeys:
    """Each subcommand reads its payload through a key table: a key it does not
    read, a non-number or a non-integer count exits 2 instead of being ignored
    or coerced."""

    @pytest.mark.parametrize("mode", MODES)
    def test_each_mode_answers_its_payload(self, tmp_path, capsys, mode):
        argv, payload, _ = MODES[mode]
        assert main(argv + ["--input", write_payload(tmp_path, payload), "--output", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("mode, path", OBJECTS, ids=[".".join(map(str, [m] + p)) for m, p in OBJECTS])
    def test_an_unread_key_is_refused(self, tmp_path, capsys, mode, path):
        argv, payload, _ = MODES[mode]
        err = assert_refused(tmp_path, capsys, argv, with_key(payload, path, "unread", 1.0))
        assert "reads no 'unread' key" in err

    # Each of these once exited 0, answering as if the key were absent.
    @pytest.mark.parametrize(
        "argv, payload, key",
        [
            pytest.param(SIDEBAND, {"nu0": 2.0, "beta": 1.0, "nu_b": 2.0}, "nu_b", id="sideband-nu_b"),
            pytest.param(SIDEBAND, {"nu0": 2.0, "beta": 1.0, "steps": [{"p": 0.1}]}, "steps", id="sideband-steps"),
            # a misspelt z0 ran the protocol from the unsqueezed state
            pytest.param(["cool"], {"nu0": 2.0, "nu_b": 2.0, "z_0": 4.0}, "z_0", id="cool-z_0"),
            # a misspelt vartheta answered the phase-insensitive theorem: p = 0.5 instead of 0.0778
            pytest.param(["feasible"], dict(TestFeasible.WORKED, varthetta=0.7), "varthetta", id="varthetta"),
            pytest.param(
                ["apply"],
                {"state": STATE, "single_mode_gto": {"p": 0.5, "nu_b": 2.0, "Phi": 0.3}},
                "Phi",
                id="single_mode_gto-Phi",
            ),
            pytest.param(
                ["cool"],
                {"nu0": 3.0, "nu_b": 2.0, "steps": [{"unitary": np.eye(2).tolist(), "p": 0.5, "squeeze": 2.0}]},
                "squeeze",
                id="step-unitary-and-squeeze",
            ),
            pytest.param(["validate"], dict(STATE, tol=1e-3), "tol", id="validate-tol"),
            pytest.param(["thermo-curve"], dict(THERMO, n=45), "n", id="thermo-curve-n"),
        ],
    )
    def test_a_key_once_ignored_is_refused(self, tmp_path, capsys, argv, payload, key):
        err = assert_refused(tmp_path, capsys, argv, payload)
        assert f"reads no '{key}' key" in err

    @pytest.mark.parametrize(
        "argv, payload",
        [
            # the channel once won silently
            (["apply"], dict(MODES["apply-channel"][1], single_mode_gto={"p": 0.5, "nu_b": 2.0})),
            (["decompose"], {"cm": np.diag([8.0, 0.5]).tolist(), "unitary": to_complex_json(np.eye(2))}),
        ],
        ids=["apply-channel-and-single_mode_gto", "decompose-cm-and-unitary"],
    )
    def test_two_alternatives_are_refused(self, tmp_path, capsys, argv, payload):
        err = assert_refused(tmp_path, capsys, argv, payload)
        assert "reads exactly one of" in err

    # Each of these was once converted and answered with exit 0.
    @pytest.mark.parametrize(
        "argv, payload, message",
        [
            pytest.param(["validate"], dict(STATE, n_modes=1.9), "'n_modes' must be a JSON integer", id="n_modes"),
            pytest.param(["thermo-curve"], dict(THERMO, N=45.9), "'N' must be a JSON integer", id="N-45.9"),
            pytest.param(["thermo-curve"], dict(THERMO, N=45.0), "'N' must be a JSON integer", id="N-45.0"),
            pytest.param(
                ["feasible"], dict(TestFeasible.WORKED, nu_i=True), "'nu_i' must be a JSON number", id="nu_i-true"
            ),
            pytest.param(
                ["feasible"], dict(TestFeasible.WORKED, nu_b="2"), "'nu_b' must be a JSON number", id="nu_b-string"
            ),
            pytest.param(["cool"], {"nu0": "5", "nu_b": 2.0}, "'nu0' must be a JSON number", id="nu0-string"),
            pytest.param(
                ["cool"], {"nu0": 5.0, "nu_b": 2.0, "steps": [{"p": True}]}, "'p' must be a JSON number", id="p"
            ),
            pytest.param(
                ["validate"], dict(STATE, cm=[["2", 0], [0, 2]]), "'cm' must be an array of numbers", id="cm-string"
            ),
            # np.asarray([[2, 0], [0, True]]) has an integer dtype
            pytest.param(
                ["validate"], dict(STATE, cm=[[2, 0], [0, True]]), "'cm' must be an array of numbers", id="cm-bool"
            ),
            pytest.param(
                ["apply"],
                with_key(MODES["apply-gto"][1], ["gto", "spectrum", "sectors", 0], "mode_indices", [0.0]),
                "'mode_indices[0]' must be a JSON integer",
                id="mode_indices-float",
            ),
            # a third entry of a [re, im] pair was dropped
            pytest.param(
                ["decompose"],
                {"unitary": [[[1, 0, 5], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]},
                "'unitary' must be a matrix of [re, im] pairs",
                id="unitary-triples",
            ),
        ],
    )
    def test_a_coerced_value_is_refused(self, tmp_path, capsys, argv, payload, message):
        err = assert_refused(tmp_path, capsys, argv, payload)
        assert message in err
