#!/usr/bin/env python3
"""Builds and runs the STEP benchmark.

    python3 perfbench/run.py --workload <paper_cones|twin_served|synth_recursion>
                             [--seed N | --held-out] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the benchmark
package (perfbench/Cargo.toml) and the `step` executable in release
mode, into $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is the result object
{"correct", "attempted", "failed", "metrics"}: every end-to-end metric
with --trace 0, every per-layer metric with --trace 1.

--self-test runs each workload twice at reduced size on the default
seed and checks that the count metrics repeat exactly, then runs the
traced run of each workload on the default seed and on the held-out
seed and input family, which asserts that each workload still
stresses the layers it was chosen for.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_cones", "twin_served", "synth_recursion")
DEFAULT_SEED = 1
# The held-out input set: a seed and a function family that no setting
# of this benchmark was tuned on.
HELD_OUT_SEED = 4242
HELD_OUT_FAMILY = 1
COUNT_METRICS = ("conflicts", "solved_share", "optimal_share", "k_mean", "and_gates")


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds both executables; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "step",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "step")


# The CPU every benchmark process runs on.
CPU = max(os.sched_getaffinity(0))


def pin():
    """Confines the benchmark, and the server it spawns, to one CPU.

    On a 2-vCPU virtual machine, wall times varied by up to 2x between
    runs while the client, the server and the engine spread over both
    CPUs (the host's steal time rose from about 4% to 20-27%); on one
    CPU they varied by about a tenth.
    """
    os.sched_setaffinity(0, {CPU})


def idle_spinner():
    """Starts a process that keeps the benchmark's CPU from idling.

    It runs at idle priority (SCHED_IDLE), so it yields the CPU at once
    to the client or the server. twin_served's open loop leaves the CPU
    idle between requests; on a virtual machine an idle virtual CPU is
    handed back to the host, and its next wake-up waits for the host.
    Over ten runs that wait moved the p90 latency by 0.27-0.41 of its
    median, and by under 0.1 with the spinner.
    """
    code = ("import os\n"
            "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
            "while True:\n"
            "    pass\n")
    return subprocess.Popen([sys.executable, "-c", code], preexec_fn=pin)


def run(binaries, workload, seed, seconds, trace, family=0):
    """Runs one workload; returns (exit code, result object or None)."""
    bench, step = binaries
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--family", str(family), "--step-bin", step,
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    spinner = idle_spinner() if workload == "twin_served" else None
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    finally:
        if spinner:
            spinner.kill()
            spinner.wait()
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result


def self_test(binaries):
    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        values = []
        for _ in range(2):
            code, result = run(binaries, workload, DEFAULT_SEED, 4, 0)
            if code != 0 or not result or not result["correct"]:
                failures.append(f"{workload}: run failed or incorrect")
                break
            values.append({m: result["metrics"][m]["value"] for m in COUNT_METRICS})
        if len(values) == 2 and values[0] != values[1]:
            failures.append(f"{workload}: counts differ between runs: {values}")
        for seed, family in ((DEFAULT_SEED, 0), (HELD_OUT_SEED, HELD_OUT_FAMILY)):
            code, result = run(binaries, workload, seed, 4, 1, family)
            if code != 0 or not result or not result["correct"]:
                failures.append(f"{workload}: traced run on seed {seed} family {family} "
                                "failed its checks")
        print(f"{workload}: {'ok' if len(failures) == before else 'FAILED'}", file=sys.stderr)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--held-out", action="store_true",
                   help=f"use seed {HELD_OUT_SEED} on input family {HELD_OUT_FAMILY}")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")
    binaries = build()
    if args.self_test:
        sys.exit(self_test(binaries))
    seed, family = (HELD_OUT_SEED, HELD_OUT_FAMILY) if args.held_out else (args.seed, 0)
    code, result = run(binaries, args.workload, seed, args.seconds, args.trace, family)
    if code != 0 or result is None:
        sys.exit(code or 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
