#!/usr/bin/env python3
"""Build the benchmark from source and run it.

One workload, one process:

    python3 perfbench/run.py --workload uniform_1w --seed 1 --seconds 15 --trace 0

Every workload, each in its own process, with a summary table at the end
and the result lines recorded in $CARGO_TARGET_DIR/perfbench/:

    python3 perfbench/run.py --all --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). The workload's own output is passed through unchanged, so
its last line is the JSON result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["uniform_1w", "uniform_2w_telemetry", "newscast_1w", "wire_faults"]
# A workload run must finish within 180 s; kill it a little
# earlier so this wrapper can still exit cleanly.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build output goes to stderr so stdout ends with the result line.
    status = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    if status != 0:
        sys.exit(f"perfbench: build failed with status {status}")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_one(binary, args, capture=False):
    try:
        done = subprocess.run(
            [binary] + args,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {' '.join(args)} did not finish within {RUN_TIMEOUT_S} s")
    return done


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def run_all(binary, argv):
    seed = option(argv, "--seed", "1")
    seconds = option(argv, "--seconds", "10")
    trace = option(argv, "--trace", "0")
    results = {}
    status = 0
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace]
        done = run_one(binary, args, capture=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        status = status or done.returncode
    out = os.path.join(target_dir(), "perfbench", f"results-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print("\nsummary (seed %s, %s s, trace %s), recorded in %s:" % (seed, seconds, trace, out))
    for workload, result in results.items():
        if result is None:
            print(f"  {workload}: no result")
            continue
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"  {workload}: {verdict}, {result['attempted']} attempted, {result['failed']} failed")
        for name, metric in result["metrics"].items():
            print(f"      {name:<30} {metric['value']:>18.6f} {metric['unit']}")
    return status


def main():
    argv = sys.argv[1:]
    binary = build()
    if "--all" in argv:
        sys.exit(run_all(binary, [a for a in argv if a != "--all"]))
    sys.exit(run_one(binary, argv).returncode)


if __name__ == "__main__":
    main()
