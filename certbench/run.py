#!/usr/bin/env python3
"""Builds the certificate-job benchmark from source and runs it.

    python3 certbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine (src/) and the harness (certbench/)
are compiled into .bench_build/certbench; build output goes to stderr, so the
last line of standard output is the harness's JSON result. The exit status
is the harness's: 0 when every job passed its checks, 1 otherwise.
certbench/test_certbench.py runs the small smoke workloads through this
script; METRICS.md documents the metrics and workloads.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "certbench")
BUILD = os.path.join(ROOT, ".bench_build", "certbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "certbench-work")
BINARY = os.path.join(BUILD, "certbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("certbench: engine sources (src/) not found; "
                 "run from a full checkout")
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"certbench: build failed: {err}")
    os.makedirs(WORKDIR, exist_ok=True)
    sys.stderr.flush()
    # The harness replaces this process, so signals reach it directly.
    os.execv(BINARY, [BINARY, "--workdir", WORKDIR] + argv)


if __name__ == "__main__":
    main(sys.argv[1:])
