#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload search|kv-socket \
        --seed N --seconds S --trace 0|1

Builds the library and the benchmark binary from source (CMake, Release)
into the build directory ($CARGO_TARGET_DIR when set, else .bench_build),
runs one workload, and prints a detail line (the workload's own metric
names, environment, checks) followed, as the last line, by the result
object {"correct", "attempted", "failed", "metrics"}. The metric set is
checked against BENCHMARK.json: every end-to-end metric with --trace 0,
every per-layer metric with --trace 1 (a layer the workload never calls
reads 0). Any build, run or metric-set failure exits non-zero without a
result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search", "kv-socket")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the benchmark binary; build output
    goes to stderr so stdout carries only the result."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call([cmake, "--build", build_dir, "--target",
                        "essdds_perfbench", "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "essdds_perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in is not always a git repository)."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def check_metrics(metrics, declared, fill_missing):
    """Validates names and units against BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in metrics.items():
        if name not in units:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric["unit"] != units[name]:
            fail(f"metric {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json says {units[name]}")
    for name, unit in units.items():
        if name not in metrics:
            if not fill_missing:
                fail(f"metric {name} missing from the run")
            metrics[name] = {"value": 0, "unit": unit}
        elif not fill_missing and not metrics[name]["value"] > 0:
            fail(f"end-to-end metric {name} reads {metrics[name]['value']}")
    return {name: metrics[name] for name in units}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)

    # Run from the checkout root with relative scratch paths: unix socket
    # paths must stay short.
    scratch = os.path.relpath(
        os.path.join(build_dir, f"run-{os.getpid()}"), ROOT)
    spans = os.path.join(build_dir, "spans",
                         f"{args.workload}-seed{args.seed}.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--spans", spans]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark binary printed no result")
    detail = json.loads(lines[-2])
    result = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = check_metrics(result["metrics"], declared,
                                      fill_missing=bool(args.trace))
    env = detail["detail"]["environment"]
    env["git_commit"] = git_commit()
    env["source_sha256"] = source_digest()
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
