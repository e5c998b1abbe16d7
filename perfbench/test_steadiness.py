#!/usr/bin/env python3
"""Self-checks for the ScaleCheck benchmark: BENCHMARK.json's shape, and steadiness.

    python3 perfbench/test_steadiness.py --contract-only
    python3 perfbench/test_steadiness.py [--runs 10] [--first-seed 1]
                                         [--workload NAME ...] [--trace]

Run it from the repository root. Without --contract-only it runs
perfbench/run.py --trace 0 on each workload once per seed (runs seeds in a
row, BENCHMARK.json's run_seconds each) and reports, for every end-to-end
metric, the quartile spread (Q3 - Q1) / median of its values, with Q1 and Q3
from statistics.quantiles(values, n=4), against the metric's bound, and how
much worse the median of the later half of the runs is than that of the
earlier half. It fails, naming the metric, when a spread exceeds its bound
(a bound the metric cannot meet) or the later half is worse by more than the
bound (two sets of runs of the same code would not agree). Both rules apply
to every metric, setup_s included. A spread above a third of the bound is
flagged. Every run must also be correct with no failed simulation. --trace
adds one traced run per workload and checks that it reports every per-layer
metric.

Results are written to .bench_build/steadiness.json.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def contract_problems(spec, raw_size):
    """Shape rules BENCHMARK.json must meet before any run."""
    p = []
    if raw_size > 64 * 1024:
        p.append("BENCHMARK.json is larger than 64 KiB")
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        p.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return p
    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32) or any(
            not isinstance(c, str) or len(c) > 200 or c.startswith("/") or ".." in c
            for c in cmd):
        p.append("command must be 1-32 relative strings of at most 200 characters")
    paths = spec["paths"]
    if not (1 <= len(paths) <= 16) or any(
            not PATH.match(x) or x.startswith("/") or ".." in x for x in paths):
        p.append("paths must be 1-16 relative directories")
    for x in paths:
        if not (ROOT / x).is_dir():
            p.append(f"path {x} is not a directory")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or not (1 <= rs <= 60):
        p.append("run_seconds must be a whole number from 1 to 60")
    names = []
    if not (2 <= len(spec["workloads"]) <= 8):
        p.append("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            p.append(f"workload {w} must have exactly name and why")
            continue
        names.append(w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            p.append(f"workload {w['name']}: why must be one line of at most 200 characters")
    if not (1 <= len(spec["end_to_end"]) <= 16):
        p.append("need 1 to 16 end-to-end metrics")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            p.append(f"end-to-end metric {m} must have exactly name, unit, better, bound")
            continue
        names.append(m["name"])
        if not (0 < m["bound"] <= 0.25):
            p.append(f"{m['name']}: bound must be in (0, 0.25]")
    if not (1 <= len(spec["per_layer"]) <= 128):
        p.append("need 1 to 128 per-layer metrics")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            p.append(f"per-layer metric {m} must have exactly name, unit, better")
            continue
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m.get("unit", "")):
            p.append(f"{m.get('name')}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            p.append(f"{m.get('name')}: better must be lower or higher")
    for n in names:
        if not NAME.match(n):
            p.append(f"bad name {n!r}")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        p.append(f"names used more than once: {dupes}")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        p.append("setup_s (unit s, better lower) must be an end-to-end metric")
    elif any(m["bound"] > setup[0]["bound"] for m in spec["end_to_end"]):
        p.append("setup_s must have the largest bound")
    return p


def run_bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--contract-only", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    raw = (ROOT / "BENCHMARK.json").read_bytes()
    spec = json.loads(raw)
    problems = contract_problems(spec, len(raw))
    if problems:
        raise SystemExit("FAIL: BENCHMARK.json: " + "; ".join(problems))
    print("BENCHMARK.json shape ok")
    if args.contract_only:
        return
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    failures = []
    results = {}
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        elapsed = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            out = run_bench(workload, seed, spec["run_seconds"], 0)
            elapsed.append(time.monotonic() - t0)
            if not out["correct"] or out["failed"]:
                failures.append(f"{workload} seed {seed}: correct={out['correct']} "
                                f"failed={out['failed']}/{out['attempted']}")
            for name in values:
                values[name].append(out["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items())
                + f" (run took {elapsed[-1]:.1f} s)", flush=True)
        results[workload] = {"run_elapsed_s": elapsed}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            s = spread(vals)
            half = len(vals) // 2
            first, second = statistics.median(vals[:half]), statistics.median(vals[half:])
            drift = (second - first) / first
            if m["better"] == "higher":
                drift = -drift
            results[workload][m["name"]] = {"values": vals, "spread": s, "drift": drift,
                                            "median": statistics.median(vals)}
            flags = []
            if s > m["bound"]:
                flags.append("SPREAD EXCEEDS BOUND")
                failures.append(f"{workload} {m['name']}: quartile spread {s:.4f} exceeds "
                                f"its bound {m['bound']} over {args.runs} runs — the "
                                f"benchmark cannot meet this bound")
            elif s > m["bound"] / 3:
                flags.append("spread above a third of the bound")
            if drift > m["bound"]:
                flags.append("LATER HALF WORSE BY MORE THAN THE BOUND")
                failures.append(f"{workload} {m['name']}: median of runs {half + 1}-{len(vals)} "
                                f"is {drift:.4f} worse than runs 1-{half}, beyond its "
                                f"bound {m['bound']}")
            print(f"{workload} {m['name']}: median {results[workload][m['name']]['median']:.6g} "
                  f"{m['unit']}, quartile spread {s:.4f} vs bound {m['bound']} "
                  f"(third {m['bound'] / 3:.4f}), later half {drift:+.4f} over "
                  f"{len(vals)} runs: {', '.join(flags) or 'ok'}", flush=True)
        if args.trace:
            t0 = time.monotonic()
            out = run_bench(workload, args.first_seed, spec["run_seconds"], 1)
            results[workload]["traced_run_elapsed_s"] = time.monotonic() - t0
            declared = {m["name"] for m in spec["per_layer"]}
            if set(out["metrics"]) != declared or not out["correct"]:
                failures.append(f"{workload} traced run: correct={out['correct']}, missing "
                                f"{sorted(declared - set(out['metrics']))}")
            print(f"{workload} traced run: {len(out['metrics'])} per-layer metrics, "
                  f"tracing overhead {out['metrics']['trace.overhead_s']['value']:.3f} s, "
                  f"took {results[workload]['traced_run_elapsed_s']:.1f} s", flush=True)

    out_dir = ROOT / ".bench_build"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(results, indent=2) + "\n")
    if failures:
        raise SystemExit("FAIL:\n  " + "\n  ".join(failures))
    print("steadiness ok")


if __name__ == "__main__":
    main()
