#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload cold-reads --seed 1 --seconds 15 --trace 0

Builds the library and the benchmark binary from source into
.bench_build/ (or $CARGO_TARGET_DIR) on first use, runs one workload,
relays the binary's report and prints, as the last line of standard
output, one JSON object:

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"setup_s": {"value": 3.71, "unit": "s"}, ...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Exits non-zero, without a JSON line,
when the build or the run fails or a metric is missing; exits 1 after the
JSON line when an operation failed or an answer check did not match.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build() -> str:
    """Configures and builds the benchmark binary; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs]):
            # Build chatter goes to stderr: stdout ends with the JSON line.
            subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "hgs_perfbench")


def metric_spec(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test input size")
    ap.add_argument("--sabotage-oracle", action="store_true",
                    help="self-test: make one expected answer wrong")
    args = ap.parse_args()

    spec = metric_spec(bool(args.trace))
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.sabotage_oracle:
        cmd.append("--sabotage-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary timed out after {RUN_TIMEOUT_S} s")
        return 1

    metrics: dict[str, tuple[float, str]] = {}
    result = None
    for line in proc.stdout.splitlines():
        print(line)
        m = re.match(r"metric (\S+) (\S+) (\S+)", line)
        if m:
            if m.group(1) in metrics:
                log(f"metric {m.group(1)} printed twice")
                return 1
            metrics[m.group(1)] = (float(m.group(2)), m.group(3))
        m = re.match(r"result correct=(\d) attempted=(\d+) failed=(\d+)", line)
        if m:
            result = m
    if result is None:
        log(f"benchmark binary exited with {proc.returncode} and no result")
        return 1

    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            log(f"workload {args.workload} did not report {name}")
            return 1
        value, printed_unit = metrics[name]
        if printed_unit != unit:
            log(f"{name}: unit {printed_unit}, BENCHMARK.json says {unit}")
            return 1
        out[name] = {"value": value, "unit": unit}
    correct = result.group(1) == "1" and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result.group(2)),
                      "failed": int(result.group(3)),
                      "metrics": out}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"failed: {e}")
        sys.exit(1)
