#!/usr/bin/env python3
"""Builds and runs the simty end-to-end benchmark.

    python3 perfbench/run.py --workload fleet|standby|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt: the simty libraries from src/ plus the
perfbench binary) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls rebuild only what changed. The binary's last stdout line is the
result, {"correct", "attempted", "failed", "metrics"}; this script checks its
shape against BENCHMARK.json and prints it as its own last line. With
--trace 1 the binary also writes spans and per-layer self times under
<build dir>/traces.

Exit status is 0 when a result was printed, non-zero otherwise (build
failure, binary failure, malformed result).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("fleet", "standby", "serve")
BUILD_TIMEOUT_S = 700  # with RUN_GRACE_S, keeps a first run with a build under 900 s
RUN_GRACE_S = 120  # binary time beyond --seconds: set-up and output checks


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def jobs():
    return max(1, min(os.cpu_count() or 1, 4))


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "-j", str(jobs())],
                   check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return out / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def schema():
    """Metric lists from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_binary(binary, args, timeout):
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout.splitlines()


def check_result(result, trace):
    """Returns a list of problems with a parsed result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    end_to_end, per_layer = schema()
    want = {m["name"]: m["unit"] for m in (per_layer if trace else end_to_end)}
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, m in got.items():
        if set(m) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(m)}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
        elif name in want and m["unit"] != want[name]:
            problems.append(f"{name}: unit {m['unit']!r}, BENCHMARK.json says {want[name]!r}")
    return problems


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, stdout lines, parsed result or None)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--trace-dir", str(build_dir() / "traces"),
            "--git-sha", git_sha(), *extra]
    code, lines = run_binary(binary, args, seconds + RUN_GRACE_S)
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return code, lines, result


def self_test():
    """Tiny runs of every workload in both modes, plus an injected bad frame."""
    binary = build()
    failures = []

    # The binary's own schema (units and directions) must match BENCHMARK.json.
    code, lines = run_binary(binary, ["--list-metrics"], 60)
    own = json.loads(lines[-1]) if code == 0 and lines else {"end_to_end": [], "per_layer": []}
    end_to_end, per_layer = schema()
    if own["end_to_end"] != end_to_end:
        failures.append("end-to-end metrics (name, unit, better, bound) differ from BENCHMARK.json")
    if own["per_layer"] != per_layer:
        failures.append("per-layer metrics (name, unit, better) differ from BENCHMARK.json")

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_once(binary, workload, 7, 1, trace, ["--tiny"])
            where = f"{workload} trace={trace}"
            if result is None:
                failures.append(f"{where}: exit {code}, no result")
                continue
            failures += [f"{where}: {p}" for p in check_result(result, trace)]
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                failures += [f"{where}: {k} is {v}" for k, v in values.items() if not v > 0]
                continue
            net = [values[k] for k in values if k.startswith("net.")]
            if workload == "standby" and not all(v > 0 for v in net):
                failures.append(f"{where}: net.* should be positive on paging runs")
            if workload != "standby" and any(v != 0 for v in net):
                failures.append(f"{where}: net.* should read 0")
            if values.get(f"model.digest.{workload}", 0) == 0:
                failures.append(f"{where}: no output digest")

    # A malformed frame is an op that fails, not a crash.
    injected = 3
    code, _, result = run_once(binary, "serve", 7, 1, 0,
                               ["--tiny", "--inject-malformed", str(injected)])
    if result is None:
        failures.append(f"malformed frames: exit {code}, no result")
    elif result["failed"] != injected or result["correct"]:
        failures.append(f"malformed frames: failed={result['failed']}, want {injected}")

    for f in failures:
        log(f"self-test: {f}")
    print("self-test: " + ("ok" if not failures else f"{len(failures)} problem(s)"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        binary = build()
        code, lines, result = run_once(binary, args.workload, args.seed, args.seconds,
                                       args.trace)
    except (OSError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as e:
        log(f"failed: {e}")
        return 1
    if result is None:
        log(f"perfbench exited {code} without a result")
        return 1
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            log(p)
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
