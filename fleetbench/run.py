#!/usr/bin/env python3
"""Build the fleet benchmark from source and run it.

Run from the repository root. The build tree is .bench_build/fleetbench.

One run (the last stdout line is the JSON result):
    python3 fleetbench/run.py --workload saturated --seed 1 --seconds 20 --trace 0

Every metric of every workload, with the correctness gate and the checks
that each workload stresses what it claims:
    python3 fleetbench/run.py --report [--workload W] [--seed N] [--seconds T]

Steadiness: N runs on consecutive seeds, then each end-to-end metric's
median, quartiles and spread against its bound in BENCHMARK.json:
    python3 fleetbench/run.py --steadiness N --workload W [--seed FIRST] [--seconds T]
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "fleetbench"
BINARY = BUILD_DIR / "fleetbench"
# A run must end within 180 s; the binary stops after --seconds plus one
# repetition.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"fleetbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the simulator sources (CMakeLists.txt, src/) are not beside "
             "the benchmark; run from the repository root", 2)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "fleetbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")


def run_binary(workload, seed, seconds, trace, spec, echo=True):
    """One run of the binary; returns its validated JSON result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{workload}: fleetbench exited {done.returncode}")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last output line is not JSON: {lines[-1]!r}")
    check_result(result, spec["per_layer" if trace else "end_to_end"])
    return result


def check_result(result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(set(got) ^ set(want))} differ from "
             "BENCHMARK.json")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value}")
    if result["attempted"] < 1:
        fail("no request attempted")


def steadiness(args, spec):
    series = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.steadiness):
        seed = args.seed + i
        result = run_binary(args.workload, seed, args.seconds, 0, spec,
                            echo=False)
        for name, m in result["metrics"].items():
            series[name].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.6g}" for n, v in series.items()), flush=True)
    print(f"\n{args.workload}: {args.steadiness} runs, seeds {args.seed}.."
          f"{args.seed + args.steadiness - 1}, {args.seconds} s each")
    print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = series[m["name"]]
        q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
        spread = (q3 - q1) / q2 if q2 else math.inf
        flag = "" if spread < m["bound"] / 3 else "  (not below bound/3)"
        print(f"  {m['name']:<24} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6}{flag}")


# What each workload is for, checked on its traced figures.
PROPERTIES = {
    "saturated": [
        ("admission is the majority of run CPU",
         lambda m: m["core.admit.busy_ms"] > 0.5 * m["run.cpu_ms"]),
        ("more than 90% of admit() calls are re-rejections",
         lambda m: m["core.admit.rereject_pct"] > 90),
    ],
    "light": [
        ("under 5% of admit() calls are re-rejections",
         lambda m: m["core.admit.rereject_pct"] < 5),
    ],
    "diurnal": [
        ("the admission queue builds up",
         lambda m: m["fleet.queue_hwm"] > 0),
        ("the queue empties again after its first peak",
         lambda m: m["fleet.queue_drains"] >= 1),
    ],
}


def report(args, spec):
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        result = run_binary(name, args.seed, args.seconds, 1, spec)
        values = {k: m["value"] for k, m in result["metrics"].items()}
        ok = ok and result["correct"] and result["failed"] == 0
        for text, holds in PROPERTIES[name]:
            ok = ok and holds(values)
            print(f"property: {text}: {'yes' if holds(values) else 'NO'}")
        print()
    print("every gate and property holds" if ok
          else "a gate or property FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--steadiness", type=int, metavar="N")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        fail(f"unknown workload {args.workload}; one of {known}", 2)
    build()
    if args.report:
        return report(args, spec)
    if args.workload is None:
        fail("--workload is required", 2)
    if args.steadiness:
        steadiness(args, spec)
        return 0
    result = run_binary(args.workload, args.seed, args.seconds, args.trace,
                        spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
