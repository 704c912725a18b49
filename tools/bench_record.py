"""Run the benchmark on chosen workloads and seeds and record a summary file.

    python3 tools/bench_record.py --out BENCH.json --workloads cooling-sweep --seeds 201 202 203

It benchmarks the git checkout it sits in.  Each (workload, seed) pair runs
the ``command`` of ``BENCHMARK.json`` once, untraced, for ``run_seconds``.
The output holds the checkout's ``git describe``, the CPU count, the Python,
numpy and scipy versions (scipy is null when it is not installed; gtokit
does not need it), the seeds, and per workload the median and
quartiles of each end-to-end metric and the share of attempted operations
that failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy

try:
    import scipy
except ImportError:
    scipy = None

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()

    names = [m["name"] for m in bench["end_to_end"]]
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
        summary[workload] = {name: quartiles([r["metrics"][name]["value"] for r in runs]) for name in names}
        summary[workload]["failed_share"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True).stdout.strip()
    record = {"git_describe": describe, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy and scipy.__version__, "seeds": args.seeds,
              "seconds": bench["run_seconds"], "workloads": summary}
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
