"""One command for every number: ``python benchmarks/perf/run.py``.

Two ways to call it.

**By hand** — all four workloads, the untraced run and then the traced
run of each, every metric printed by name with its unit::

    python benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
        [--repeat N] [--quick] [--no-trace] [-o OUT.json]

``--repeat N`` runs the untraced suite N times on the same code, with
seeds ``--seed`` ... ``--seed + N - 1`` as the driver does, and prints each
end-to-end metric's median, quartiles and spread, failing when a spread
exceeds the metric's bound in ``BENCHMARK.json``.
``--quick`` is ``--seconds 1``: a smoke run, not for claims.

**By the driver** (the contract in ``BENCHMARK.json``) — one workload,
one run, the result as one JSON object on the last line::

    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The exit code is non-zero on a wrong answer, a failed operation, a leaked
process, a mutation lost in recovery, or a generator that ran late.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark measures the checkout it sits in, from source.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no src/repro under {ROOT}: nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

from catalog import END_TO_END, PER_LAYER  # noqa: E402
from oracle import Oracle  # noqa: E402
from served import percentile, run_served  # noqa: E402
from traced import run_traced  # noqa: E402
from workloads import REFERENCE_SECONDS, WORKLOADS  # noqa: E402

MANIFEST = ROOT / "BENCHMARK.json"


def host_facts() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: the untraced run's end-to-end metrics, or
    the traced run's per-layer metrics."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    oracle = Oracle(workload)
    workload.phases(seed, seconds)  # databases, pools and schedules built
    prepare_s = time.perf_counter() - started
    if trace:
        metrics, runs, trace_path = run_traced(workload, seed, seconds, oracle, prepare_s)
        report = {"trace_file": str(trace_path)}
        catalogue = PER_LAYER
    else:
        run = run_served(workload, seed, seconds, oracle)
        metrics, runs, report = run.metrics, [run], {"samples": run.samples}
        catalogue = END_TO_END
    late = [late for run in runs for late in run.lateness_s]
    failures = [why for run in runs for why in run.failures]
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    # An open-loop generator that is later than the latency it measures
    # is measuring itself.
    late_p95_ms = percentile(late, 95) * 1e3
    if late and late_p95_ms > min(r.metrics["query_ms_p50"] for r in runs):
        failed += 1
        failures.append(
            f"invalid run: generator p95 lateness {late_p95_ms:.3f} ms exceeds "
            f"the median query latency"
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in catalogue
        },
        "server_command": runs[-1].command,
        "loop": workload.loop,
        "oracle_cached": oracle.cache_hit,
        "prepare_s": prepare_s,
        "wall_s": time.perf_counter() - started,
        **report,
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def print_result(result: dict) -> None:
    kind = "traced run, per layer" if result["traced"] else "untraced run, end to end"
    print(f"\n== {result['workload']}  ({kind}; seed {result['seed']}, "
          f"{result['seconds']:g} s nominal, {result['loop']})")
    print(f"   server: {' '.join(result['server_command'][1:])}")
    samples = result.get("samples", {})
    for name, entry in result["metrics"].items():
        note = ""
        if name.startswith("query_ms"):
            note = f"   ({samples.get('query_ms', 0)} samples)"
        elif name.startswith("mutation_ms"):
            note = f"   ({samples.get('mutation_ms', 0)} samples)"
        print(f"   {name:44s} {entry['value']:14.4f} {entry['unit']}{note}")
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_fraction':44s} {share:14.4f} ratio   "
          f"({result['failed']} of {result['attempted']} operations)")
    for why in result["failures"]:
        print(f"   FAILED: {why}")
    if result["traced"]:
        print(f"   trace: {result['trace_file']}")


def spread_report(results: list[dict], bounds: dict[str, float]) -> bool:
    """Per workload and end-to-end metric: median, quartiles and spread
    over the repeats.  Returns whether every spread is within its bound."""
    ok = True
    by_workload: dict[str, list[dict]] = {}
    for result in results:
        if not result["traced"]:
            by_workload.setdefault(result["workload"], []).append(result)
    for workload, runs in by_workload.items():
        print(f"\n== {workload}: spread over {len(runs)} runs")
        print(f"   {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
        for metric in END_TO_END:
            values = [r["metrics"][metric.name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / median
            spread = (max(values) - min(values)) / median
            bound = bounds[metric.name]
            # set-up time is bounded on its median only (BENCHMARK.json
            # contract), every other metric on its spread too.
            over = iqr > bound and metric.name != "setup_s"
            ok = ok and not over
            print(f"   {metric.name:20s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{iqr:8.3f} {spread:9.3f} {bound:6.2f}"
                  f"{'  OVER BOUND' if over else ''}")
    return ok


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(REFERENCE_SECONDS),
                        help="nominal measured time per run; operation counts "
                        "scale with it (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one run, 0 = end-to-end metrics, "
                        "1 = per-layer metrics, result as one JSON line")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="--seconds 1: a smoke run, not for claims")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--output", "-o")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.quick else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        for why in result["failures"]:
            print(f"FAILED: {why}", file=sys.stderr)
        print(json.dumps({
            key: result[key] for key in ("correct", "attempted", "failed", "metrics")
        }))
        return 0 if result["correct"] else 1

    facts = host_facts()
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results, unresolved = [], []
    for repeat in range(args.repeat):
        for name in names:
            if WORKLOADS[name].needs_cores > facts["nproc"]:
                # No scaling claim from a box that cannot run the parts
                # in parallel (ROADMAP, aim 1).
                if repeat == 0:
                    unresolved.append(name)
                    print(f"\n== {name}: unresolved — assumes "
                          f"{WORKLOADS[name].needs_cores} cores, host has "
                          f"{facts['nproc']}")
                continue
            modes = [False] if args.no_trace or args.repeat > 1 else [False, True]
            for trace in modes:
                result = run_workload(name, args.seed + repeat, seconds, trace)
                results.append(result)
                print_result(result)
    ok = all(r["correct"] for r in results)
    if args.repeat > 1:
        manifest = json.loads(MANIFEST.read_text())
        bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
        ok = spread_report(results, bounds) and ok
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"host": facts, "unresolved": unresolved, "results": results}, indent=1
        ))
    print("\n" + ("all operations correct" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
