"""Command-line interface.

Subcommands: ``validate`` (state check), ``feasible`` (single-mode
transformation queries), ``apply`` (run a channel on a state, optionally
cross-checked against the explicit-dilation oracle), ``cool`` (protocol /
adversarial / sideband cooling runs), ``thermo-curve`` (majorization-curve
CSV export), ``decompose`` (normal forms of matrices), and ``selftest``.

JSON goes in and out on files or standard streams; traces and curves are
CSV.  Exit codes: 0 success or positive verdict, 1 well-formed negative
verdict, 2 invalid input, 3 internal invariant breach.

This module alone knows the JSON format.  Each payload is read through its
subcommand's key table, which refuses a missing key, any key it does not
read, a non-number and a non-integer count.

``feasible`` and protocol ``cool`` run on Python floats and start without
numpy.  Every other subcommand, and each reader of an array payload, imports
numpy and the numpy-backed modules itself, when it runs.
"""

import argparse
import json
import math
import sys

from .feasibility import (
    FEASIBILITY_TOL,
    TransformQuery,
    necessary_bounds,
    single_mode_feasible,
    squeezed_bath_feasible,
)
from .scalar import (
    CHANNEL_TOL,
    STRUCTURAL_TOL,
    _check_squeeze,
    _check_step,
    _step_entries,
    entropy,
    nu_of,
    protocol_trace,
)

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BREACH = 3


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


# Readers: ``read(value, key)`` returns the library value of one payload entry
# or refuses it with a ValueError naming ``key``.


def _number(value, key: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"'{key}' must be a JSON number, got {value!r}")
    return float(value)


def _count(value, key: str) -> int:
    if type(value) is not int:
        raise ValueError(f"'{key}' must be a JSON integer, got {value!r}")
    return value


def _shape(value, key: str) -> tuple:
    """Shape of a JSON array of numbers nested to any depth, ``()`` for a lone
    number; anything else, a ragged array included, is refused."""
    if type(value) in (int, float):
        return ()
    if isinstance(value, list):
        shapes = {_shape(v, key) for v in value}
        if len(shapes) <= 1:
            return (len(value), *(shapes.pop() if shapes else ()))
    raise ValueError(f"'{key}' must be an array of numbers")


def _array(value, key: str):
    """A JSON array of numbers, nested to any depth, as a float array."""
    import numpy as np

    _shape(value, key)
    return np.asarray(value, dtype=float)


def _entries(value, key: str) -> tuple:
    """A 2x2 JSON matrix of numbers as its four entries, row by row; ``()`` for any other shape."""
    return tuple(float(v) for row in value for v in row) if _shape(value, key) == (2, 2) else ()


def _complex_array(value, key: str):
    """A JSON matrix of ``[re, im]`` pairs as a complex matrix."""
    pairs = _array(value, key)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"'{key}' must be a matrix of [re, im] pairs")
    return pairs.view(complex)[..., 0]


def _list(read):
    """Reader of a JSON array whose every entry ``read`` reads."""

    def read_list(value, key: str) -> list:
        if not isinstance(value, list):
            raise ValueError(f"'{key}' must be a JSON array")
        return [read(v, f"{key}[{k}]") for k, v in enumerate(value)]

    return read_list


def _keys(obj, where: str, required: dict, optional: dict | None = None) -> dict:
    """Read the JSON object ``obj`` through the readers of its keys.

    Every key of ``required`` must be present, a key of ``optional`` may be,
    and any other key is refused: the payload format has no key that is
    silently ignored.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    readers = {**required, **(optional or {})}
    for key in obj:
        if key not in readers:
            raise ValueError(f"{where} reads no '{key}' key")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where} needs a '{key}' key")
    return {key: read(obj[key], key) for key, read in readers.items() if key in obj}


def _which(values: dict, where: str, choices) -> str:
    """The one key of ``choices`` that ``values`` holds."""
    given = [key for key in choices if key in values]
    if len(given) != 1:
        raise ValueError(f"{where} reads exactly one of {', '.join(map(repr, choices))}, got {len(given)}")
    return given[0]


def _state(value, key: str):
    from .states import GaussianState

    return GaussianState(**_keys(value, key, {"n_modes": _count, "first_moments": _array, "cm": _array}))


def _channel(value, key: str):
    from .channels import GaussianChannel

    return GaussianChannel(**_keys(value, key, {"X": _array, "Y": _array, "d": _array}))


def _single_mode_gto(value, key: str):
    from .channels import single_mode_gto

    v = _keys(value, key, {"p": _number, "nu_b": _number}, {"phi": _number, "S": _array})
    return single_mode_gto(v["p"], v.get("phi", 0.0), v["nu_b"], v.get("S"))


def _frequency_sector(value, key: str):
    from .states import FrequencySector

    v = _keys(value, key, {"omega": _number, "multiplicity": _count, "mode_indices": _list(_count)})
    return FrequencySector(v["omega"], v["multiplicity"], tuple(v["mode_indices"]))


def _spectrum(value, key: str):
    from .states import FrequencySpectrum

    v = _keys(value, key, {"S": _array, "sectors": _list(_frequency_sector)})
    return FrequencySpectrum(v["S"], tuple(v["sectors"]))


def _gto_sector(value, key: str):
    from .channels import GTOSector

    return GTOSector(**_keys(value, key, {"Z": _complex_array, "thetas": _array, "W": _complex_array}))


def _gto_spec(value, key: str):
    from .channels import GTOSpec

    return GTOSpec(**_keys(value, key, {"spectrum": _spectrum, "beta": _number, "sectors": _list(_gto_sector)}))


def _step(value, key: str) -> tuple:
    """A protocol step ``(U, p, phi)`` on floats, ``U`` the four entries of its
    ``unitary`` or of the unitary that ``squeeze`` and ``rotate`` give."""
    if isinstance(value, dict) and "unitary" in value:
        v = _keys(value, key, {"unitary": _entries, "p": _number}, {"phi": _number})
        U = v["unitary"]
    else:
        v = _keys(value, key, {"p": _number}, {"squeeze": _number, "rotate": _number, "phi": _number})
        U = _step_entries(v.get("squeeze", 1.0), v.get("rotate", 0.0))
    _check_step(U, v["p"])
    return U, v["p"], v.get("phi", 0.0)


def _state_json(state) -> dict:
    return {"n_modes": state.n_modes, "first_moments": state.first_moments.tolist(), "cm": state.cm.tolist()}


def _complex_json(M) -> list:
    import numpy as np

    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M, dtype=complex)]


def cmd_validate(args) -> int:
    from .states import _physical_spectrum

    state = _state(_read_json(args), "validate")
    nus = _physical_spectrum(state, args.tol_structural)
    payload = {"valid": nus is not None}
    if nus is not None:
        payload["symplectic_eigenvalues"] = nus.tolist()
    _write_json(args, payload)
    return EXIT_NEGATIVE if nus is None else EXIT_OK


def cmd_feasible(args) -> int:
    required = dict.fromkeys(("nu_i", "z_i", "nu_f", "z_f", "nu_b"), _number)
    query = TransformQuery(**_keys(_read_json(args), "feasible", required, {"vartheta": _number}))
    if query.vartheta is None:
        result = single_mode_feasible(query, tol=args.tol_feasibility)
    else:
        result = squeezed_bath_feasible(query, tol=args.tol_feasibility)
    payload = {"feasible": result.feasible, "p": result.p, "reason": result.reason}
    payload["bounds"] = dict(necessary_bounds(query, tol=args.tol_feasibility))
    _write_json(args, payload)
    # A feasible verdict that a necessary bound contradicts is an internal error.
    failed = [name for name, holds in payload["bounds"].items() if not holds]
    if result.feasible and failed:
        print(f"feasible verdict contradicts necessary bounds: {', '.join(failed)}", file=sys.stderr)
        return EXIT_BREACH
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


_CHANNEL_READERS = {"channel": _channel, "single_mode_gto": _single_mode_gto, "gto": _gto_spec}


def cmd_apply(args) -> int:
    import numpy as np

    from .channels import apply_channel, gto_to_channel, oracle_apply

    v = _keys(_read_json(args), "apply", {"state": _state}, _CHANNEL_READERS)
    kind = _which(v, "apply", _CHANNEL_READERS)
    if args.oracle and kind != "gto":
        raise ValueError("--oracle requires a 'gto' payload")
    state = v["state"]
    channel = gto_to_channel(v["gto"]) if kind == "gto" else v[kind]

    out = apply_channel(channel, state, tol=args.tol_channel)
    result = _state_json(out)
    if args.oracle:
        via_oracle = oracle_apply(v["gto"], state)
        result["oracle_max_deviation"] = float(
            max(
                np.abs(out.cm - via_oracle.cm).max(),
                np.abs(out.first_moments - via_oracle.first_moments).max(),
            )
        )
    _write_json(args, result)
    return EXIT_OK


def _trace_csv(steps: list, bound: float) -> str:
    lines = ["step,nu,entropy,bound"]
    for k, (nu, ent) in enumerate(steps):
        lines.append(f"{k},{nu!r},{ent!r},{bound!r}")
    return "\n".join(lines) + "\n"


def _start(v: dict) -> tuple:
    """Diagonal ``(a, c)`` of the squeezed thermal start ``nu0 * squeezer(z0)`` of a ``cool`` payload.

    The start is physical iff ``nu0``, its symplectic eigenvalue, is at
    least ``1 - STRUCTURAL_TOL``.
    """
    z0 = v.get("z0", 1.0)
    _check_squeeze(z0)
    a, c = v["nu0"] * z0, v["nu0"] * (1.0 / z0)
    if not (math.isfinite(a) and math.isfinite(c)):
        raise ValueError("cm must be finite")
    if not v["nu0"] >= 1.0 - STRUCTURAL_TOL:
        raise ValueError("initial state has an invalid covariance matrix")
    return a, c


def cmd_cool(args) -> int:
    if args.sideband is not None and args.json:
        raise ValueError("--json does not apply to --sideband, whose output is always JSON")
    payload = _read_json(args)
    if args.sideband is not None:
        import numpy as np

        from .cooling import sideband_swap
        from .states import GaussianState

        v = _keys(payload, "cool --sideband", {"nu0": _number, "beta": _number}, {"z0": _number})
        initial = GaussianState(1, np.zeros(2), np.diag(_start(v)))
        cooled, nu_achieved = sideband_swap(initial, v["beta"], args.sideband)
        _write_json(
            args,
            {
                "nu_achieved": nu_achieved,
                "nu_ancilla": nu_of(v["beta"], args.sideband),
                "entropy": entropy(nu_achieved),
                "state": _state_json(cooled),
            },
        )
        return EXIT_OK

    if args.adversary is not None:
        from .cooling import greedy_adversary

        if args.adversary < 1:
            raise ValueError(f"--adversary must be >= 1, got {args.adversary}")
        # The adversary starts from the unsqueezed nu0 * identity and searches its own steps.
        v = _keys(payload, "cool --adversary", {"nu0": _number, "nu_b": _number})
        trace = greedy_adversary(v["nu0"], v["nu_b"], args.adversary)
        steps, bound, violated = trace.steps, trace.bound, trace.violated
    else:
        # The float loop behind the library's run_protocol, on the payload's numbers.
        v = _keys(payload, "cool", {"nu0": _number, "nu_b": _number}, {"z0": _number, "steps": _list(_step)})
        a, c = _start(v)
        steps, bound, violated = protocol_trace(a, 0.0, c, v.get("steps", []), v["nu_b"])

    if args.json:
        _write_json(args, {"steps": [[nu, ent] for nu, ent in steps], "bound": bound, "violated": violated})
    else:
        _write_text(args, _trace_csv(steps, bound))
    # A violated floor cannot happen physically; treat it as an internal error.
    return EXIT_BREACH if violated else EXIT_OK


def cmd_thermo_curve(args) -> int:
    from .thermo import geometric_probs, level_cutoff, thermo_curve

    required = dict.fromkeys(("beta_i", "beta", "E"), _number)
    v = _keys(_read_json(args), "thermo-curve", required, {"N": _count})
    beta_i, beta, E = v["beta_i"], v["beta"], v["E"]
    N = v["N"] if "N" in v else level_cutoff(beta_i, beta, E=E)
    curve = thermo_curve(geometric_probs(beta_i, E, N), geometric_probs(beta, E, N))
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in curve]
    _write_text(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_decompose(args) -> int:
    from .states import single_mode_decompose
    from .symplectic import cosine_sine_decompose, williamson

    v = _keys(_read_json(args), "decompose", {}, {"cm": _array, "unitary": _complex_array})
    if _which(v, "decompose", ("cm", "unitary")) == "unitary":
        form = cosine_sine_decompose(v["unitary"], tol=args.tol_structural)
        _write_json(
            args,
            {
                "W": _complex_json(form.W),
                "X": _complex_json(form.X),
                "Z": _complex_json(form.Z),
                "Y": _complex_json(form.Y),
                "thetas": form.thetas.tolist(),
            },
        )
        return EXIT_OK
    cm = v["cm"]
    form = williamson(cm, tol=args.tol_structural)
    result = {"S": form.S.tolist(), "nus": form.nus.tolist()}
    if cm.shape == (2, 2):
        nf = single_mode_decompose(cm, tol=args.tol_structural)
        result["normal_form"] = {"nu": nf.nu, "z": nf.z, "phi": nf.phi}
    _write_json(args, result)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(args.seed, quick=args.quick)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} - {res.detail}")
    if all(res.passed for res in results):
        print("all suites passed")
        return EXIT_OK
    print("selftest FAILED", file=sys.stderr)
    return EXIT_BREACH


# Tolerance flags: default and the checks each governs.
_TOL_FLAGS = {
    "--tol-structural": (STRUCTURAL_TOL, "symmetry/symplectic/unitarity checks"),
    "--tol-feasibility": (FEASIBILITY_TOL, "feasibility consistency and range checks"),
    "--tol-channel": (CHANNEL_TOL, "the channel complete-positivity check"),
}


def _json_subcommand(sub, name: str, func, help_text: str, *tol_flags: str) -> argparse.ArgumentParser:
    """Subparser for ``func`` with ``--input``, ``--output`` and the tolerance flags it reads."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--input", metavar="FILE", help="input JSON file (default: stdin)")
    p.add_argument("--output", metavar="FILE", help="output file (default: stdout)")
    for flag in tol_flags:
        default, checks = _TOL_FLAGS[flag]
        p.add_argument(
            flag, type=float, default=default, metavar="TOL", help=f"tolerance for {checks} (default: %(default)s)"
        )
    p.set_defaults(func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtokit",
        description="Gaussian thermal operations: validity, feasibility, "
        "channel simulation, cooling bounds, thermo-majorization.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    _json_subcommand(sub, "validate", cmd_validate, "check a Gaussian state", "--tol-structural")
    _json_subcommand(sub, "feasible", cmd_feasible, "single-mode transformation query", "--tol-feasibility")

    p = _json_subcommand(sub, "apply", cmd_apply, "apply a channel to a state", "--tol-channel")
    p.add_argument(
        "--oracle", action="store_true",
        help="also run the explicit-dilation oracle and report the deviation",
    )

    p = _json_subcommand(sub, "cool", cmd_cool, "run a cooling protocol")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--adversary", type=int, metavar="N", help="greedy adversarial search, N rounds")
    mode.add_argument(
        "--sideband", type=float, metavar="OMEGA",
        help="swap with a thermal ancilla at this frequency (output is always JSON)",
    )
    p.add_argument("--json", action="store_true", help="emit the trace as JSON instead of CSV")

    _json_subcommand(sub, "thermo-curve", cmd_thermo_curve, "export a thermo-majorization curve as CSV")
    _json_subcommand(sub, "decompose", cmd_decompose, "normal forms of a CM or unitary", "--tol-structural")

    p = sub.add_parser("selftest", help="run the built-in property suites; reports on stdout")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default: %(default)s)")
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        # numpy's LinAlgError is a ValueError, but a failure of gtokit, not of
        # the input; only a subcommand that loaded numpy can raise it.
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(exc, numpy.linalg.LinAlgError):
            print(f"internal error: linear algebra failed: {exc}", file=sys.stderr)
            return EXIT_BREACH
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
