#!/usr/bin/env python3
"""End-to-end benchmark of scol: four workloads from file ingest to served reports.

    python3 bench_e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the repository root. Builds the library, scol-serve and the
scol-e2e benchmark program (bench_e2e/CMakeLists.txt) into .bench_build/
on first use, then runs one workload and relays its output. The last line
of standard output is the JSON result; `bench_e2e/trace_summary.py` turns
the traced runs' span files into per-layer tables.

The first run of a seed records its deterministic counts under
.bench_build/state/counts/; later runs of that seed must reproduce them.
Delete that directory after changing the program's output on purpose.

Workloads: ingest-rmat18, lists-rmat15, planar-paper, serve-mix.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
STATE = os.path.join(BUILD, "state")
WORKLOADS = ("ingest-rmat18", "lists-rmat15", "planar-paper", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds incrementally; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "scol"))):
        fail("the scol sources (CMakeLists.txt, src/scol) are not next to "
             "bench_e2e/")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "scol-e2e",
                  "-j", jobs])
    # Compiler temporaries stay in the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(STATE, exist_ok=True)
    cmd = [
        os.path.join(CMAKE_DIR, "scol-e2e"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--state-dir", STATE,
        "--serve-bin", os.path.join(CMAKE_DIR, "scol", "scol-serve"),
    ]
    # Own process group, so a timeout stops scol-e2e and every daemon or
    # set-up child it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    if lines:
        results = os.path.join(STATE, "results")
        os.makedirs(results, exist_ok=True)
        name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
        try:
            json.loads(lines[-1])
            with open(os.path.join(results, name), "w") as f:
                f.write(lines[-1] + "\n")
        except ValueError:
            pass
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
