#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark
program from source into .bench_build/ (Release, incremental), runs one
workload (--trace 0: end-to-end metrics) or the traced run over every
workload (--trace 1: per-layer metrics, Chrome traces in .bench_out/
checked with `vcgra_stats --check-trace`), and prints as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, without a result line, when the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("small_jobs", "mixed_queue", "large_streams", "vessel_frames")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then build incrementally. Returns the bin dir."""
    source = root / "perfbench"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    configured = any((build_dir / name).exists()
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", str(source), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "vcgra_perfbench", "vcgra_stats"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def check_traces(stats_tool, trace_files):
    """vcgra_stats --check-trace on every exported trace; True if all pass."""
    ok = True
    for path in trace_files:
        out = subprocess.run([str(stats_tool), "--check-trace", str(path)],
                             capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
        print(f"check-trace {path.name}: "
              f"{'ok' if out.returncode == 0 else 'FAILED'}")
        if out.returncode != 0:
            log(out.stdout + out.stderr)
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    out_dir = root / ".bench_out"
    try:
        build(root, build_dir)
    except (OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("trace_*.json"):
        stale.unlink()
    command = [str(build_dir / "vcgra_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(out_dir), "--git-sha", git_sha(root)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"vcgra_perfbench exited {proc.returncode} without a result line")
        return 1
    print("\n".join(lines[:-1]))

    correct = result["correct"] and proc.returncode == 0
    if args.trace == 1:
        traces = sorted(out_dir.glob("trace_*.json"))
        traces_ok = (len(traces) == len(WORKLOADS) and
                     check_traces(build_dir / "vcgra" / "tools" / "vcgra_stats",
                                  traces))
        if not traces_ok:
            correct = False
            result["failed"] += 1
    result["correct"] = correct
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
