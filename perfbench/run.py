#!/usr/bin/env python3
"""ScaleCheck benchmark: builds scalecheck_bench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (the
repository's library plus perfbench/scalecheck_bench.cc) into
.bench_build/perfbench, then runs the workload in fresh single-threaded
processes, one iteration each, until S seconds have been measured (at least
two iterations, so the determinism record can be compared).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
iterations of host wall time, set-up time and peak RSS. --trace 1 makes the
same untraced iterations, then one traced iteration, and reports every
per-layer metric of BENCHMARK.json, including the tracing overhead (traced
wall time minus the untraced median). The trace's spans are written to
.bench_build/traces/<workload>-seed<N>.json in Chrome trace-event format.

Every iteration checks its own outputs; a failed check counts all of that
iteration's simulations as failed. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "scalecheck_bench"
TRACE_DIR = ROOT / ".bench_build" / "traces"

MIN_ITERATIONS = 2
# Stop starting iterations that could not finish inside the 180 s limit.
TIME_LIMIT_S = 170.0
BUILD_TIMEOUT_S = 850.0


class BenchError(Exception):
    pass


def say(line=""):
    print(line, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no scalecheck sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "scalecheck_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def run_iteration(workload, seed, timeout_s, trace_out=None):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}"]
    if trace_out is not None:
        cmd.append(f"--trace-out={trace_out}")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, timeout_s))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def untraced_iterations(workload, seed, seconds, started):
    iterations = []
    measure_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        iterations.append(run_iteration(workload, seed,
                                        TIME_LIMIT_S - (t0 - started)))
        took = time.monotonic() - t0
        now = time.monotonic()
        if len(iterations) >= MIN_ITERATIONS and now - measure_start >= seconds:
            break
        if len(iterations) >= MIN_ITERATIONS and now - started + took > TIME_LIMIT_S:
            break
    return iterations


def median(values):
    return statistics.median(values)


def describe_checks(it):
    return "; ".join(f"{c['name']} {'ok' if c['ok'] else 'FAILED'} ({c['detail']})"
                     for c in it["checks"])


def tally(iterations):
    """(attempted, failed) simulations; a failed check fails its iteration."""
    attempted = failed = 0
    for it in iterations:
        attempted += it["sims"]
        if all(c["ok"] for c in it["checks"]):
            failed += it["failed_sims"]
        else:
            failed += it["sims"]
    return attempted, failed


def determinism_problems(reference, others):
    """Differences in hashes/counts; only labels both sides recorded compare."""
    problems = []
    for i, other in enumerate(others, 2):
        for key in ("hashes", "counts"):
            a, b = reference[key], other[key]
            for label in sorted(a.keys() & b.keys()):
                if a[label] != b[label]:
                    problems.append(f"iteration {i} {key}.{label}: {b[label]} != {a[label]}")
            if not other.get("traced") and a.keys() != b.keys():
                problems.append(f"iteration {i} {key} labels differ")
    return problems


def report_iterations(workload, seed, iterations):
    for n, it in enumerate(iterations, 1):
        say(f"{workload} seed={seed} {'traced' if it['traced'] else 'untraced'} "
            f"iteration {n}: wall {it['wall_s']:.3f} s, set-up median "
            f"{median(it['setup_s']):.6f} s over {len(it['setup_s'])} samples, "
            f"peak RSS {it['peak_rss_mib']:.1f} MiB, {it['sims']} simulations "
            f"({it['failed_sims']} failed)")
        say(f"  checks: {describe_checks(it)}")
    first = iterations[0]
    say("determinism record (hash of each simulation's RunResult JSON minus its "
        "profile):")
    for label, digest in sorted(first["hashes"].items()):
        say(f"  {label}: {digest}")
    say("  counts: " + ", ".join(f"{k}={v}" for k, v in sorted(first["counts"].items())))


def end_to_end(spec, iterations):
    samples_of = {"wall_s": [it["wall_s"] for it in iterations],
                  "setup_s": [s for it in iterations for s in it["setup_s"]],
                  "peak_rss_mib": [it["peak_rss_mib"] for it in iterations]}
    metrics = {}
    for m in spec["end_to_end"]:
        if m["name"] not in samples_of:
            raise BenchError(f"no measurement for end-to-end metric {m['name']}")
        samples = samples_of[m["name"]]
        value = median(samples)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        # The highest of p99 and p90 with at least ten samples beyond it.
        tail = "no p90: fewer than 10 samples beyond it"
        for p in (99, 90):
            if len(samples) * (100 - p) >= 1000:
                tail = f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.6g} {m['unit']}"
                break
        say(f"{m['name']}: median {value:.6g} {m['unit']} over {len(samples)} "
            f"samples ({tail})")
    return metrics


def per_layer(spec, iterations, traced, failed_pct):
    layers = dict(traced["layers"])
    unavailable = dict(traced["unavailable"])
    # Layers only the untraced path measures (the ExperimentSuite's own cell
    # timings) come from the untraced iterations, as medians.
    for name in list(unavailable):
        samples = [it["layers"][name]["value"] for it in iterations if name in it["layers"]]
        if samples:
            unit = iterations[0]["layers"][name]["unit"]
            layers[name] = {"value": median(samples), "unit": unit}
            del unavailable[name]
    untraced_wall = median([it["wall_s"] for it in iterations])
    layers["trace.overhead_s"] = {"value": traced["wall_s"] - untraced_wall, "unit": "s"}
    layers["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    layers["bench.failed_runs_pct"] = {"value": failed_pct, "unit": "%"}
    say(f"tracing overhead: traced wall {traced['wall_s']:.3f} s - untraced median "
        f"{untraced_wall:.3f} s ({len(iterations)} samples)")

    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    extra = sorted(layers.keys() - declared.keys())
    missing = sorted(declared.keys() - layers.keys())
    if extra or missing:
        raise BenchError(f"per-layer metrics out of step with BENCHMARK.json: "
                         f"undeclared {extra}, not produced {missing}")
    metrics = {}
    for name, unit in declared.items():
        if layers[name]["unit"] != unit:
            raise BenchError(f"{name}: unit {layers[name]['unit']} != declared {unit}")
        metrics[name] = {"value": layers[name]["value"], "unit": unit}
        note = f"  (unavailable: {unavailable[name]})" if name in unavailable else ""
        say(f"{name}: {metrics[name]['value']:.6g} {unit}{note}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload}")
    build()
    started = time.monotonic()
    iterations = untraced_iterations(args.workload, args.seed, args.seconds, started)
    everything = list(iterations)
    traced = None
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        traced = run_iteration(args.workload, args.seed,
                               TIME_LIMIT_S - (time.monotonic() - started), trace_file)
        everything.append(traced)
        say(f"trace written to {trace_file.relative_to(ROOT)}")
    report_iterations(args.workload, args.seed, everything)

    problems = determinism_problems(iterations[0], everything[1:])
    for p in problems:
        say(f"DETERMINISM: {p}")
    attempted, failed = tally(everything)
    failed_pct = 100.0 * failed / attempted
    say(f"simulations: {attempted} attempted, {failed} failed ({failed_pct:.2f}%)")
    if args.trace:
        metrics = per_layer(spec, iterations, traced, failed_pct)
    else:
        metrics = end_to_end(spec, iterations)
    correct = failed == 0 and not problems
    say(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        sys.exit(1)
