"""One benchmark process: set up a workload, run it in a closed loop, check it.

A single client runs one operation at a time and starts the next when the
previous returns.  Only the gtokit call is timed; input generation and the
checks run between operations, outside the timed phase.
"""

import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import cli_oneshot
from .tracer import LAYERS, Tracer
from .workloads import CoolingSweep, MultimodeOracle, ReachabilityMap

# Per-layer functions reported as ``<layer>.<function>.{calls,ms}``.
TRACED_FUNCTIONS = (
    "symplectic.omega",
    "symplectic.is_symplectic",
    "symplectic.williamson",
    "symplectic.symplectic_eigenvalues",
    "symplectic.cosine_sine_decompose",
    "symplectic.unitary_to_passive",
    "states.validate_state",
    "states.normal_mode_spectrum",
    "states.thermal_state",
    "states.single_mode_decompose",
    "channels.validate_channel",
    "channels.single_mode_gto",
    "channels.apply_channel",
    "channels.gto_to_channel",
    "channels.dilate_and_trace",
    "feasibility.single_mode_feasible",
    "feasibility.squeezed_bath_feasible",
    "cooling.run_protocol",
    "cooling.greedy_adversary",
    "thermo.geometric_probs",
    "thermo.thermo_curve",
    "thermo.cross_check",
)
CLI_SUBCOMMANDS = ("validate", "feasible", "apply", "cool", "thermo-curve", "decompose", "selftest")
IMPORT_SAMPLES = 3
CLI_MAIN_REPEATS = 3


def make_workload(name: str, seed: int, root: str, in_process: bool):
    if name == "cli-oneshot":
        return cli_oneshot.CliOneshot(seed, root, in_process)
    return {"cooling-sweep": CoolingSweep, "reachability-map": ReachabilityMap,
            "multimode-oracle": MultimodeOracle}[name](seed)


@dataclass
class Phase:
    """What a stretch of whole rounds did."""

    latencies: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)  # failures not recorded as known faults
    protocol_steps: int = 0
    adversary_rounds: int = 0
    next_round: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies)


def run_phase(workload, seconds: float, first_round: int, cached: dict) -> Phase:
    """Run whole rounds until the timed operations add up to ``seconds``."""
    phase = Phase(next_round=first_round)
    clock = time.perf_counter
    busy = 0.0
    while busy < seconds:
        ops = cached.pop(phase.next_round, None) or workload.make_round(phase.next_round)
        results = []
        for op in ops:
            start = clock()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a raising call is a failed operation, not a crash
                out, error = None, exc
            elapsed = clock() - start
            busy += elapsed
            phase.latencies.append(elapsed)
            results.append((out, error))
        for op, (out, error) in zip(ops, results):
            problems = [f"raised {error!r}"] if error is not None else op.check(out)
            if problems:
                phase.failed += 1
                if not op.known_fault:
                    phase.problems.append(f"{op.kind}: " + "; ".join(problems[:3]))
            phase.protocol_steps += op.protocol_steps
            phase.adversary_rounds += op.adversary_rounds
        phase.next_round += 1
    return phase


def end_to_end(workload_name: str, phase: Phase) -> dict:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-oneshot" else resource.RUSAGE_SELF
    return {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(phase.latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def import_times(root: str) -> dict:
    """Median over a few ``python -X importtime -c 'import gtokit.cli'`` runs of the
    whole gtokit import and of its numpy and scipy parts, in ms."""
    samples = {"total": [], "numpy": [], "scipy": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gtokit.cli"],
            capture_output=True, text=True, env=cli_oneshot.gtokit_env(root), cwd=root, timeout=60, check=True,
        )
        for key, value in parse_importtime(proc.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def parse_importtime(text: str) -> dict:
    """Cumulative ms of the top-level gtokit imports, of numpy and of the
    outermost scipy imports, from ``-X importtime`` output."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e3))
    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
    open_scipy = []  # reversed post-order visits parents first: depths under a scipy import
    for depth, name, ms in reversed(entries):
        while open_scipy and open_scipy[-1] >= depth:
            open_scipy.pop()
        if depth == 0 and name.split(".")[0] == "gtokit":
            out["total"] += ms
        if name == "numpy":
            out["numpy"] = ms
        if name.split(".")[0] == "scipy" and not open_scipy:
            out["scipy"] += ms
            open_scipy.append(depth)
    return out


def cli_main_times(seed: int, root: str) -> dict:
    """Median in-process time of ``gtokit.cli.main(argv)`` per subcommand, in ms."""
    ops = cli_oneshot.CliOneshot(seed, root, in_process=True).make_round(0)
    times = {sub: [] for sub in CLI_SUBCOMMANDS}
    for _ in range(CLI_MAIN_REPEATS):
        for op in ops:
            start = time.perf_counter()
            op.run()
            times[op.kind].append(time.perf_counter() - start)
    return {sub: statistics.median(vals) * 1e3 for sub, vals in times.items()}


def per_layer(workload, seed: int, seconds: float, root: str, round0: list) -> tuple:
    """Untraced then traced halves of the run; returns (metrics, phases)."""
    untraced = run_phase(workload, seconds / 2, 0, {0: round0})
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, seconds / 2, untraced.next_round, {})
    finally:
        tracer.uninstall()
    n = traced.attempted
    metrics = {}
    for key in TRACED_FUNCTIONS:
        metrics[f"{key}.calls"] = (tracer.calls[key] / n, "calls/op")
        metrics[f"{key}.ms"] = (tracer.seconds[key] * 1e3 / n, "ms/op")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (tracer.self_seconds[layer] * 1e3 / n, "ms/op")
    steps, rounds = traced.protocol_steps, traced.adversary_rounds
    metrics["cooling.us_per_step"] = (
        tracer.seconds["cooling.run_protocol"] * 1e6 / steps if steps else 0.0, "us")
    metrics["cooling.us_per_adversary_round"] = (
        tracer.seconds["cooling.greedy_adversary"] * 1e6 / rounds if rounds else 0.0, "us")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced.ops_per_s / untraced.ops_per_s), "%")
    imports = import_times(root)
    metrics["cli.import_ms"] = (imports["total"], "ms")
    metrics["cli.import.numpy_ms"] = (imports["numpy"], "ms")
    metrics["cli.import.scipy_ms"] = (imports["scipy"], "ms")
    for sub, ms in cli_main_times(seed, root).items():
        metrics[f"cli.main.{sub}_ms"] = (ms, "ms")
    return metrics, [untraced, traced]


def run(name: str, seed: int, seconds: float, trace: bool, probe: bool, root: str) -> dict:
    """Set up, then (unless probing set-up only) measure and check.

    Returns the wall-clock time of the first timed operation, and for a full
    run the counts, the problems found and the metrics as (value, unit).
    """
    workload = make_workload(name, seed, root, in_process=trace)
    round0 = workload.make_round(0)
    round0[0].run()  # untimed warm-up
    first_op_at = time.time()
    if probe:
        return {"first_op_at": first_op_at}
    if trace:
        metrics, phases = per_layer(workload, seed, seconds, root, round0)
    else:
        phases = [run_phase(workload, seconds, 0, {0: round0})]
        metrics = end_to_end(name, phases[0])
    for key, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {key} is not finite: {value!r}")
    return {
        "first_op_at": first_op_at,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "problems": [msg for p in phases for msg in p.problems],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
