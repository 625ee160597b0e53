#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 scanbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script configures and builds the
benchmark (scanbench/CMakeLists.txt, Release) into the directory named by
$CARGO_TARGET_DIR, default .bench_build, runs the benchmark binary, and passes
its output through: the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Build logs go to stderr.

Each run also leaves a record under <build dir>/results/: the arguments, the
result, and a host block (cores, compiler, build type and flags, git sha,
load average at start). scanbench/compare.py reads those records. Traced
runs (--trace 1) also write their spans there as CSV.

Exit status: the binary's (0 only when no checked operation failed); 2 when
the engine sources are missing or the build fails, without a result line.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_tput", "push_2tbl", "service_open", "parallel_fit")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"scanbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "scanbench")
    return binary if os.access(binary, os.X_OK) else None


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"engine sources not found under {ROOT}/src; run from a full "
            "checkout")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 2

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(results, stem + ".spans.csv")]
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            load = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        load = -1.0
    # The binary is stopped and reaped on every way out of this block: a
    # timeout, SIGTERM to this script, or an error.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stderr.write(err)
    lines = out.splitlines()
    host = {}
    for line in lines:
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
    host.update({"git_sha": git_sha(), "nproc": os.cpu_count(),
                 "loadavg_1m_at_start": load})
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "host": host, "result": result}
        with open(os.path.join(results, stem + ".json"), "w",
                  encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
