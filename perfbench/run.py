#!/usr/bin/env python3
"""Build and run the DvP engine benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`, runs the named
workload, and prints one JSON object as the last line of standard output:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are BENCHMARK.json's `end_to_end` list; with `--trace 1` its
`per_layer` list, where the allocation counts come from a second binary
built with a counting allocator. Exits non-zero, without a result line,
when the build fails or a binary reports something other than the listed
metrics; exits 1 after the result line when a correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Child processes must end inside the benchmark's 180 s limit; the first
# build of a checkout may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def result_of(cmd):
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(cmd[0])} printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail("build failed")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    bin_dir = os.path.join(target, "release")
    cmd = [os.path.join(bin_dir, "perfbench"), *common,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-{args.seed}.csv")
        cmd += ["--spans", spans]
    result = result_of(cmd)
    if args.trace:
        allocs = result_of([os.path.join(bin_dir, "perfbench-alloc"), *common])
        result["correct"] = result["correct"] and allocs["correct"]
        result["attempted"] += allocs["attempted"]
        result["failed"] += allocs["failed"]
        result["metrics"].update(allocs["metrics"])

    if result["correct"]:
        got = set(result["metrics"])
        if got != set(listed):
            fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(listed) - got)}, "
                 f"unlisted {sorted(got - set(listed))}")
        result["metrics"] = {name: result["metrics"][name] for name in listed}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
