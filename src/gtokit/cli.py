"""Command-line interface.

Subcommands: ``validate`` (state check), ``feasible`` (single-mode
transformation queries), ``apply`` (run a channel on a state, optionally
cross-checked against the explicit-dilation oracle), ``cool`` (protocol /
adversarial / sideband cooling runs), ``thermo-curve`` (majorization-curve
CSV export), ``decompose`` (normal forms of matrices), and ``selftest``.

JSON goes in and out on files or standard streams; traces and curves are
CSV.  Exit codes: 0 success or positive verdict, 1 well-formed negative
verdict, 2 invalid input, 3 internal invariant breach.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .channels import (
    CHANNEL_TOL,
    GaussianChannel,
    GTOSpec,
    SingleModeGTO,
    _complex_matrix_from_json,
    _complex_matrix_to_json,
    apply_channel,
    gto_to_channel,
    oracle_apply,
)
from .cooling import ProtocolStep, greedy_adversary, run_protocol, sideband_swap
from .feasibility import (
    FEASIBILITY_TOL,
    TransformQuery,
    necessary_bounds,
    single_mode_feasible,
    squeezed_bath_feasible,
)
from .states import (
    GaussianState,
    entropy,
    nu_of,
    single_mode_decompose,
    validate_state,
)
from .symplectic import (
    STRUCTURAL_TOL,
    cosine_sine_decompose,
    symplectic_eigenvalues,
    williamson,
)
from .thermo import geometric_probs, level_cutoff, thermo_curve

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BREACH = 3


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GTO_KIT_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} in input")


def _finite(parse):
    """JSON number hook: ``parse(text)``, refusing numbers beyond the double range."""

    def hook(text: str):
        if math.isinf(float(text)):
            shown = text if len(text) <= 20 else text[:20] + "..."
            raise ValueError(f"number {shown} in input overflows a double")
        return parse(text)

    return hook


_JSON_HOOKS = dict(
    parse_constant=_refuse_constant, parse_float=_finite(float), parse_int=_finite(int)
)


def _read_json(args) -> dict:
    """Parse the input JSON, refusing NaN, +-Infinity and numbers that overflow a double."""
    if args.input:
        with open(args.input) as fh:
            return json.load(fh, **_JSON_HOOKS)
    return json.load(sys.stdin, **_JSON_HOOKS)


def _write_text(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, payload: dict) -> None:
    _write_text(args, json.dumps(payload, indent=2) + "\n")


def cmd_validate(args) -> int:
    state = GaussianState.from_dict(_read_json(args))
    valid = validate_state(state, tol=args.tol_structural)
    payload = {"valid": valid}
    if valid:
        payload["symplectic_eigenvalues"] = symplectic_eigenvalues(state.cm, args.tol_structural).tolist()
    _write_json(args, payload)
    return EXIT_OK if valid else EXIT_NEGATIVE


def cmd_feasible(args) -> int:
    query = TransformQuery.from_dict(_read_json(args))
    if query.vartheta is None:
        result = single_mode_feasible(query, tol=args.tol_feasibility)
    else:
        result = squeezed_bath_feasible(query, tol=args.tol_feasibility)
    payload = result.to_dict()
    payload["bounds"] = dict(necessary_bounds(query, tol=args.tol_feasibility))
    _write_json(args, payload)
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


def cmd_apply(args) -> int:
    payload = _read_json(args)
    state = GaussianState.from_dict(payload["state"])
    spec = None
    if "channel" in payload:
        channel = GaussianChannel.from_dict(payload["channel"])
    elif "single_mode_gto" in payload:
        channel = SingleModeGTO.from_dict(payload["single_mode_gto"]).to_channel()
    elif "gto" in payload:
        spec = GTOSpec.from_dict(payload["gto"])
        channel = gto_to_channel(spec)
    else:
        raise ValueError("payload needs one of 'channel', 'single_mode_gto', 'gto'")

    out = apply_channel(channel, state, tol=args.tol_channel)
    result = out.to_dict()
    if args.oracle:
        if spec is None:
            raise ValueError("--oracle requires a 'gto' payload")
        via_oracle = oracle_apply(spec, state)
        result["oracle_max_deviation"] = float(
            max(
                np.abs(out.cm - via_oracle.cm).max(),
                np.abs(out.first_moments - via_oracle.first_moments).max(),
            )
        )
    _write_json(args, result)
    return EXIT_OK


def _trace_csv(trace) -> str:
    lines = ["step,nu,entropy,bound"]
    for k, (nu, ent) in enumerate(trace.steps):
        lines.append(f"{k},{nu!r},{ent!r},{trace.bound!r}")
    return "\n".join(lines) + "\n"


def cmd_cool(args) -> int:
    payload = _read_json(args)
    if args.sideband is not None:
        nu0 = float(payload["nu0"])
        z0 = float(payload.get("z0", 1.0))
        beta = float(payload["beta"])
        state = GaussianState(1, np.zeros(2), nu0 * np.diag([z0, 1.0 / z0]))
        cooled, nu_achieved = sideband_swap(state, beta, args.sideband)
        _write_json(
            args,
            {
                "nu_achieved": nu_achieved,
                "nu_ancilla": nu_of(beta, args.sideband),
                "entropy": entropy(nu_achieved),
                "state": cooled.to_dict(),
            },
        )
        return EXIT_OK

    nu_b = float(payload["nu_b"])
    if args.adversary is not None:
        trace = greedy_adversary(float(payload["nu0"]), nu_b, args.adversary)
    else:
        nu0 = float(payload["nu0"])
        z0 = float(payload.get("z0", 1.0))
        steps = [ProtocolStep.from_dict(s) for s in payload.get("steps", [])]
        initial = GaussianState(1, np.zeros(2), nu0 * np.diag([z0, 1.0 / z0]))
        trace = run_protocol(initial, steps, nu_b)

    if args.json:
        _write_json(
            args,
            {
                "steps": [[nu, ent] for nu, ent in trace.steps],
                "bound": trace.bound,
                "violated": trace.violated,
            },
        )
    else:
        _write_text(args, _trace_csv(trace))
    # A violated floor cannot happen physically; treat it as an internal error.
    return EXIT_BREACH if trace.violated else EXIT_OK


def cmd_thermo_curve(args) -> int:
    payload = _read_json(args)
    beta_i = float(payload["beta_i"])
    beta = float(payload["beta"])
    E = float(payload["E"])
    if "N" in payload:
        N = int(payload["N"])
    else:
        N = level_cutoff(beta_i, beta, E=E)
    curve = thermo_curve(geometric_probs(beta_i, E, N), geometric_probs(beta, E, N))
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in curve.breakpoints]
    _write_text(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_decompose(args) -> int:
    payload = _read_json(args)
    if "unitary" in payload:
        U = _complex_matrix_from_json(payload["unitary"])
        form = cosine_sine_decompose(U, tol=args.tol_structural)
        _write_json(
            args,
            {
                "W": _complex_matrix_to_json(form.W),
                "X": _complex_matrix_to_json(form.X),
                "Z": _complex_matrix_to_json(form.Z),
                "Y": _complex_matrix_to_json(form.Y),
                "thetas": form.thetas.tolist(),
            },
        )
        return EXIT_OK
    if "cm" in payload:
        cm = np.asarray(payload["cm"], dtype=float)
        form = williamson(cm, tol=args.tol_structural)
        result = {"S": form.S.tolist(), "nus": form.nus.tolist()}
        if cm.shape == (2, 2):
            nf = single_mode_decompose(cm, tol=args.tol_structural)
            result["normal_form"] = {"nu": nf.nu, "z": nf.z, "phi": nf.phi}
        _write_json(args, result)
        return EXIT_OK
    raise ValueError("payload needs 'unitary' or 'cm'")


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(_resolve_seed(args), quick=args.quick)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} - {res.detail}")
    if all(res.passed for res in results):
        print("all suites passed")
        return EXIT_OK
    print("selftest FAILED", file=sys.stderr)
    return EXIT_BREACH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtokit",
        description="Gaussian thermal operations: validity, feasibility, "
        "channel simulation, cooling bounds, thermo-majorization.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input JSON file (default: stdin)")
    common.add_argument("--output", help="output file (default: stdout)")
    common.add_argument("--seed", type=int, help="RNG seed (fallback: GTO_KIT_SEED, then built-in)")
    common.add_argument(
        "--tol-structural", type=float, default=STRUCTURAL_TOL,
        help="tolerance for symmetry/symplectic/unitarity checks",
    )
    common.add_argument(
        "--tol-channel", type=float, default=CHANNEL_TOL,
        help="tolerance for the channel complete-positivity check",
    )
    common.add_argument(
        "--tol-feasibility", type=float, default=FEASIBILITY_TOL,
        help="tolerance for feasibility consistency and range checks",
    )

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a Gaussian state")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("feasible", parents=[common], help="single-mode transformation query")
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("apply", parents=[common], help="apply a channel to a state")
    p.add_argument(
        "--oracle", action="store_true",
        help="also run the explicit-dilation oracle and report the deviation",
    )
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("cool", parents=[common], help="run a cooling protocol")
    p.add_argument("--adversary", type=int, metavar="N", help="greedy adversarial search, N rounds")
    p.add_argument("--sideband", type=float, metavar="OMEGA", help="swap with a thermal ancilla at this frequency")
    p.add_argument("--json", action="store_true", help="emit the trace as JSON instead of CSV")
    p.set_defaults(func=cmd_cool)

    p = sub.add_parser("thermo-curve", parents=[common], help="export a thermo-majorization curve as CSV")
    p.set_defaults(func=cmd_thermo_curve)

    p = sub.add_parser("decompose", parents=[common], help="normal forms of a CM or unitary")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("selftest", parents=[common], help="run the built-in property suites")
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
