#!/usr/bin/env python3
"""Build and run the PUSCH receive benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout.  The first call configures and
builds perfbench/ (which compiles the library from ../src) in the directory
named by $CARGO_TARGET_DIR, default `.bench_build`; later calls only
re-check the build.  The benchmark binary prints notes and a metadata line,
then the result object as the last line of standard output.  This script
checks that object against BENCHMARK.json (every end-to-end metric with
--trace 0; per-layer metrics with --trace 1, where a layer the workload
does not exercise reads 0), prints it as its own last line and exits with
the binary's code.  The traced run writes its Chrome trace-event JSON to
<build dir>/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler scratch stays inside the checkout
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only benchmark output.
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=880)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def git_describe():
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() \
        else "unknown"


def check_metrics(result, spec, traced):
    section = "per_layer" if traced else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = result["metrics"]
    for name, entry in got.items():
        if name not in want:
            fail(f"metric {name} is not in BENCHMARK.json {section}")
        if entry["unit"] != want[name]:
            fail(f"metric {name} has unit {entry['unit']}, "
                 f"BENCHMARK.json says {want[name]}")
    missing = [n for n in want if n not in got]
    if missing and not traced:
        fail(f"end-to-end metrics missing: {', '.join(missing)}")
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": want[n]})
                         for n in want}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git", git_describe()]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=175)
    lines = r.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {r.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"last line is not a result object (exit {r.returncode})")
    check_metrics(result, spec, args.trace == "1")
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
