#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size (a few thousand events).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py --tiny with --trace 0
and --trace 1 and checks that:
  * the run succeeds and its last line is the JSON result, marked correct;
  * the JSON holds every end_to_end (resp. per_layer) metric of
    BENCHMARK.json, each with its unit, and nothing else;
  * every metric line of the report is printed once, and the metrics only
    some workloads produce appear on exactly those workloads.
Then it runs one workload with a deliberately wrong expected answer and
checks that the answer check fails the run.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Report metrics outside BENCHMARK.json, and the workloads that print them.
ONLY_ON = {
    "taf_p50_ms": {"warm-analytics"},
    "append_events_per_s": {"live-append"},
}
ALWAYS = {"failed_ops_ratio"}


def run(workload: str, trace: int, *extra: str):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)
            print(f"FAIL {what}", flush=True)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{wl} trace={trace}"
            p = run(wl, trace)
            expect(p.returncode == 0, f"{tag}: exit {p.returncode}\n{p.stderr}")
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{tag}: last line is not JSON")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result.get("correct") is True, f"{tag}: not correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: v["unit"] for n, v in result.get("metrics", {}).items()}
            units = [(n, got[n], want[n]) for n in want
                     if n in got and got[n] != want[n]]
            expect(got == want, f"{tag}: JSON metrics differ: "
                   f"missing {sorted(set(want) - set(got))}, "
                   f"extra {sorted(set(got) - set(want))}, units {units}")
            printed = [m.group(1) for m in
                       (re.match(r"metric (\S+) ", l) for l in lines) if m]
            expect(len(printed) == len(set(printed)),
                   f"{tag}: a metric line is printed twice")
            for name in ALWAYS:
                expect(name in printed, f"{tag}: {name} not printed")
            if trace == 0:
                for name, workloads in ONLY_ON.items():
                    expect((name in printed) == (wl in workloads),
                           f"{tag}: {name} printed={name in printed}")
            print(f"ok   {tag}: {len(printed)} metrics", flush=True)

    wl = spec["workloads"][0]["name"]
    p = run(wl, 0, "--sabotage-oracle")
    lines = p.stdout.strip().splitlines()
    sabotaged = json.loads(lines[-1]) if lines else {}
    expect(p.returncode != 0 and sabotaged.get("correct") is False
           and sabotaged.get("failed", 0) >= 1,
           f"{wl} with a wrong expected answer: exit {p.returncode}, "
           f"result {sabotaged}")
    expect("answer check failed" in p.stderr,
           f"{wl} with a wrong expected answer: no mismatch reported")
    if not failures:
        print("ok   wrong expected answer fails the run", flush=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
