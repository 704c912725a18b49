"""Run the benchmark on chosen workloads and seeds and record a summary file.

    python3 tools/bench_record.py --out BENCH.json --workloads cooling-sweep --seeds 201 202 203
    python3 tools/bench_record.py --out BENCH.json --seeds 201 202 203 --against HEAD~1

It benchmarks the git checkout it sits in.  Each (workload, seed) pair runs
the ``command`` of ``BENCHMARK.json`` once, untraced, for ``run_seconds``.
The output holds the checkout's ``git describe``, the CPU count, the Python,
numpy and scipy versions (scipy is null when it is not installed; gtokit
does not need it), the seeds, and per workload the median and
quartiles of each end-to-end metric, the share of attempted operations
that failed, and the quartiles of each run's wall-clock seconds
(``wall_s``: the run's process from start to exit, setup and checks
included, so a change that lengthens a run shows even when its metrics do
not).

With ``--against REF`` the committed files of ``REF`` are exported with
``git archive`` into a temporary directory (the repository's ``.git`` is
only read), and every (workload, seed) pair runs there too, alternately
first and second.  Each workload then also holds ``against``: per metric
the reference's quartiles, the per-pair ratios checkout / reference in
seed order, and the number of pairs the checkout won; the reference's
failed share; and the quartiles of the reference's ``wall_s``.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import tarfile
import tempfile
import time
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


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def export(ref: str, into: Path) -> None:
    """Unpack the committed files of ``ref`` into the directory ``into``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
        tar.extractall(into, filter="data")


def run_once(bench: dict, checkout: Path, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.PIPE, text=True).stdout
    wall_s = time.perf_counter() - start
    return {**json.loads(out.strip().splitlines()[-1]), "wall_s": wall_s}


def failed_share(runs: list) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def summarise(runs: list, names: list) -> dict:
    summary = {name: quartiles([r["metrics"][name]["value"] for r in runs]) for name in names}
    summary["failed_share"] = failed_share(runs)
    summary["wall_s"] = quartiles([r["wall_s"] for r in runs])
    return summary


def compare(runs: list, ref_runs: list, metrics: list) -> dict:
    """Per metric: the reference's quartiles, the per-pair ratios and the checkout's wins."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(r["metrics"][name]["value"], q["metrics"][name]["value"]) for r, q in zip(runs, ref_runs)]
        out[name] = {
            "reference": quartiles([ref for _, ref in pairs]),
            "ratio": [new / ref for new, ref in pairs],
            "wins": sum(new < ref if lower else new > ref for new, ref in pairs),
        }
    out["failed_share"] = failed_share(ref_runs)
    out["wall_s"] = quartiles([r["wall_s"] for r in ref_runs])
    return out


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--against", metavar="REF", help="also run the committed files of this git revision")
    args = parser.parse_args()

    names = [m["name"] for m in bench["end_to_end"]]
    describe = git("describe", "--always", "--dirty").decode().strip()
    record = {"git_describe": describe, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy and scipy.__version__, "seeds": args.seeds,
              "seconds": bench["run_seconds"]}
    with tempfile.TemporaryDirectory(prefix="bench_ref_") as tmp:
        reference = None
        if args.against:
            reference = Path(tmp)
            export(args.against, reference)
            record["against"] = {"ref": args.against, "sha": git("rev-parse", args.against + "^{commit}").decode().strip()}
        summary = {}
        for workload in args.workloads:
            runs, ref_runs = [], []
            for k, seed in enumerate(args.seeds):
                if reference is not None and k % 2 == 0:
                    ref_runs.append(run_once(bench, reference, workload, seed))
                runs.append(run_once(bench, ROOT, workload, seed))
                if reference is not None and k % 2 == 1:
                    ref_runs.append(run_once(bench, reference, workload, seed))
            summary[workload] = summarise(runs, names)
            if reference is not None:
                summary[workload]["against"] = compare(runs, ref_runs, bench["end_to_end"])
    record["workloads"] = summary
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
