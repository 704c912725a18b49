"""Run every workload on several seeds and report each metric's median and spread.

    python3 perfbench/prove.py                       # 10 seeds, every workload
    python3 perfbench/prove.py --seeds 5 --workloads cli-oneshot

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; it is set
against each end-to-end metric's bound from ``BENCHMARK.json``.  Results are
written as JSON under ``perfbench/results/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                     "bound": bounds.get(name), "values": values}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        started = time.time()
        runs = [run_once(spec["command"], workload, seed, spec["run_seconds"], args.trace)
                for seed in range(1, args.seeds + 1)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_shares": sorted(shares),
            "attempted": [r["attempted"] for r in runs],
            "metrics": summarize(runs, bounds),
        }
        print(f"{workload}: correct={report[workload]['correct']} failed shares={sorted(shares)} "
              f"({time.time() - started:.0f} s)")
        for name, m in report[workload]["metrics"].items():
            bound = "" if m["bound"] is None else f"  bound {m['bound']:.2f}"
            print(f"  {name:44s} median {m['median']:12.5g}  spread {m['spread']:.4f}{bound}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"prove-{time.strftime('%Y%m%d-%H%M%S')}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
