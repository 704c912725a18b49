"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload cooling-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a gtokit checkout; gtokit is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The measuring process is a child of this
one, so that set-up time counts from the start of a fresh interpreter;
``setup_s`` is the median over that child and a few children that only set
up.  Exits non-zero, printing no result, if anything fails to run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 30


def run_timeout(seconds: float) -> float:
    """Wall-clock limit of the measuring process: a run takes about twice
    ``--seconds`` (checks run between operations), plus set-up and, when
    traced, the import and ``cli.main`` passes."""
    return 60.0 + 4.0 * seconds


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed operation time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launch", "measure", "probe"), default="launch",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child(args, role: str, timeout: float) -> tuple:
    """Start this script in ``role``; return (start time, its result dict)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--role", role]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def launch(args) -> int:
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started, res = child(args, "probe", PROBE_TIMEOUT_S)
            setup.append(res["first_op_at"] - started)
    started, res = child(args, "measure", run_timeout(args.seconds))
    metrics = res["metrics"]
    if not args.trace:
        setup.append(res["first_op_at"] - started)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for msg in res["problems"][:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def measure(args) -> int:
    if not (ROOT / "src" / "gtokit" / "__init__.py").is_file():
        print(f"error: no gtokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import worker

    res = worker.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.role == "probe", str(ROOT))
    print(json.dumps(res))
    return 0


def main() -> int:
    args = parse_args()
    if args.role == "launch":
        try:
            return launch(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
