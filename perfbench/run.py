#!/usr/bin/env python3
"""Host benchmark of graphbench: builds gb_perfbench and measures one workload.

    python3 perfbench/run.py --workload figure_grid --seed 110 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. It compiles the libraries under src/
together with this directory into .bench_build/, prepares the workload's
inputs in a private directory under .bench_build/work/, measures, removes
that directory, and prints one JSON object as the last line of stdout.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_build" / "work"
BINARY = BUILD_DIR / "gb_perfbench"
WORKLOADS = ("cold_build", "figure_grid", "serve_mixed")
WARM = ("figure_grid", "serve_mixed")
BUILD_TIMEOUT_S = 840
MEASURE_TIMEOUT_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds gb_perfbench; a no-op when it is up to date."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", str(BUILD_DIR), "--target",
                  "gb_perfbench", "-j", jobs]]
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def golden_path(workload, profile, seed):
    return HERE / "golden" / f"{workload}-{profile}-seed{seed}.txt"


def measure(workload, seed, seconds, trace, profile="full", write_golden=None):
    """Runs one workload in a fresh private directory; returns the
    result object and the env object the binary printed."""
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(work),
              "--profile", profile]
    deadline = time.monotonic() + MEASURE_TIMEOUT_S
    try:
        if workload in WARM:
            # Inputs are generated before and outside anything timed.
            subprocess.run([str(BINARY), *common, "--prepare"], check=True,
                           stdout=sys.stderr,
                           timeout=deadline - time.monotonic())
        cmd = [str(BINARY), *common, "--seconds", str(seconds),
               "--trace", str(trace),
               "--golden", str(golden_path(workload, profile, seed))]
        if write_golden:
            cmd += ["--write-golden", str(write_golden)]
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError("gb_perfbench printed no result")
    return json.loads(lines[-1]), json.loads(lines[-2])


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def self_test():
    """Every workload at tiny scale, untraced and traced: every metric of
    BENCHMARK.json is emitted with its unit and every output checks."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, env = measure(workload, 110, 1, trace, profile="tiny")
            want = expected_metrics(trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{workload} trace={trace}"
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if got.get(k) not in (None, want[k])]}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: {result['failed']} failed checks")
            if not trace and result["metrics"]["ok_frac"]["value"] != 1.0:
                problems.append(f"{tag}: ok_frac != 1")
            if not env["env"]["golden"]:
                problems.append(f"{tag}: golden table not found")
            log(f"{tag}: {result['attempted']} checks ok")
    for p in problems:
        log(f"self-test FAILED: {p}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=110)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's outputs as the seed's golden table")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    try:
        build()
        if args.self_test:
            return self_test()
        out = None
        if args.write_golden:
            out = golden_path(args.workload, args.profile, args.seed)
            out.parent.mkdir(exist_ok=True)
            out.unlink(missing_ok=True)
            args.trace = 1  # the traced pass checks every record there is
        result, env = measure(args.workload, args.seed, args.seconds,
                              args.trace, args.profile, out)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
