#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke.py [--seconds S]

Runs every workload briefly (--trace 0) and the traced run once
(--trace 1) through perfbench/run.py, and asserts that:
  * every end-to-end metric of BENCHMARK.json prints by name with its
    unit, plus the human-readable fail_ratio line, and fail_ratio is 0;
  * the traced run prints every per-layer metric with its unit;
  * every exported Chrome trace passes `vcgra_stats --check-trace`.
Exits 0 when all hold.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines, json.loads(lines[-1])


def expect_metrics(failures, label, result, specs):
    got = result["metrics"]
    names = [spec["name"] for spec in specs]
    if sorted(got) != sorted(names):
        failures.append(f"{label}: metric names differ: "
                        f"missing {sorted(set(names) - set(got))}, "
                        f"extra {sorted(set(got) - set(names))}")
    for spec in specs:
        metric = got.get(spec["name"])
        if metric is not None and metric["unit"] != spec["unit"]:
            failures.append(f"{label}: {spec['name']} unit {metric['unit']!r}, "
                            f"expected {spec['unit']!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    for workload in (w["name"] for w in bench["workloads"]):
        code, lines, result = run(workload, args.seconds, 0)
        label = f"{workload} --trace 0"
        if code != 0 or not result["correct"] or result["failed"] != 0:
            failures.append(f"{label}: exit {code}, result {result}")
        expect_metrics(failures, label, result, bench["end_to_end"])
        ratio = [line for line in lines
                 if re.match(rf"metric\s+{workload}\s+fail_ratio\s+= 0 ratio",
                             line)]
        if not ratio:
            failures.append(f"{label}: no 'fail_ratio = 0 ratio' line")
        print(f"{label}: {len(result['metrics'])} metrics, "
              f"{result['attempted']} ops")

    code, lines, result = run(bench["workloads"][0]["name"], args.seconds, 1)
    if code != 0 or not result["correct"] or result["failed"] != 0:
        failures.append(f"--trace 1: exit {code}, correct {result['correct']}")
    expect_metrics(failures, "--trace 1", result, bench["per_layer"])
    checked = [line for line in lines if re.match(r"check-trace .*: ok$", line)]
    if len(checked) != len(bench["workloads"]):
        failures.append(f"--trace 1: {len(checked)} traces passed "
                        f"vcgra_stats --check-trace, expected "
                        f"{len(bench['workloads'])}")
    print(f"--trace 1: {len(result['metrics'])} metrics, "
          f"{len(checked)} traces checked")

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
