#!/usr/bin/env python3
"""TPC-W through a real MTCache server and backend: end-to-end and per-layer
benchmark.

    python3 perfbench/run.py --workload ordering --seed 1 --seconds 55 --trace 0

Builds perfbench/ (CMake, on top of ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the arithmetic self-check, then repeats
the tpcw_ledger program until --seconds have passed (at least MIN_ROUNDS
rounds). Every repeat is a fresh process that sets the system up from nothing
and runs the workload's fixed number of interactions with the same seed, so a
faster build does the same work, not more. The last line of stdout is one
JSON object with the median of each metric over the repeats:

  --trace 0  the end_to_end metrics of BENCHMARK.json (untraced repeats);
  --trace 1  the per_layer metrics: untraced repeats with the per-interaction
             probe alternate with traced repeats that read the span ledger.

Exits non-zero without a result when the engine sources are missing or the
build fails, and non-zero after the result when any repeat was incorrect.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("browsing", "ordering", "shopping_half")
MIN_ROUNDS = {0: 3, 1: 2}  # rounds of repeat kinds, by --trace
REPEAT_TIMEOUT_S = 60     # a repeat takes seconds; keeps a hung run under 180 s


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: engine sources (src/) not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return build_dir


def run_repeat(binary, workload, seed, flags):
    """Runs one repeat; returns its parsed result or None on failure."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)] + flags
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: repeat timed out:", " ".join(cmd))
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: repeat printed no result:", " ".join(cmd))
        return None
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build_dir = build()
    if subprocess.run([str(build_dir / "ledger_selftest")]).returncode != 0:
        sys.exit("perfbench: ledger self-check failed")

    # Repeat kinds, cycled: plain untraced repeats for the end-to-end run;
    # probe + traced pairs for the per-layer run.
    kinds = [["--probe"], ["--traced"]] if args.trace else [[]]
    results = []
    durations = []
    start = time.monotonic()
    while True:
        flags = kinds[len(results) % len(kinds)]
        t0 = time.monotonic()
        result = run_repeat(build_dir / "tpcw_ledger", args.workload,
                            args.seed, flags)
        durations.append(time.monotonic() - t0)
        if result is None:
            sys.exit("perfbench: a repeat failed")
        results.append(result)
        elapsed = time.monotonic() - start
        enough = len(results) >= MIN_ROUNDS[args.trace] * len(kinds)
        complete = len(results) % len(kinds) == 0
        next_round = statistics.median(durations) * len(kinds)
        if enough and complete and elapsed + next_round > args.seconds:
            break

    values = {}
    for result in results:
        for name, value in result["metrics"].items():
            values.setdefault(name, []).append(value)
    medians = {name: statistics.median(v) for name, v in values.items()}
    if args.trace:
        medians["trace.overhead_pct"] = 100 * (
            medians["wips"] / medians["trace.wips"] - 1)
    print("host: nproc=%d spin_mops=%.1f repeats=%d seconds=%.1f; samples "
          "per repeat: %d interactions (%d browse, %d order)" % (
              medians["host.nproc"], medians["host.spin_mops"], len(results),
              time.monotonic() - start, medians["latency_samples"],
              medians["browse_samples"], medians["order_samples"]))

    missing = [m["name"] for m in wanted if m["name"] not in medians]
    if missing:
        sys.exit("perfbench: metrics not produced: " + ", ".join(missing))
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
