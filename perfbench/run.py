#!/usr/bin/env python3
"""Builds the pipeline benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of the repository. The build lives in .bench_build/ and
its output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's: 0 only when every
correctness check passed and no operation failed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources in %s/src; nothing to build" % ROOT)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "cwd": ROOT}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"], check=True, **quiet)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    sys.stdout.flush()
    if argv == ["--selftest"]:
        command = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        command = [os.path.join(BUILD, "perfbench")] + argv
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
