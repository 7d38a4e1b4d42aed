#!/usr/bin/env python3
"""Ward benchmark entry point.

Builds ward_bench from this checkout's src/ (Release, into
.bench_build/wardbench) on first use, then runs it:

  python3 wardbench/run.py --workload ward_table1 --seed 1 --seconds 20 --trace 0
  python3 wardbench/run.py --selftest
  python3 wardbench/run.py --build-only

The last line of stdout is the result object ward_bench prints. A failed
build, a failed gate or a refused build type exits non-zero.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "wardbench")
BUILD = os.path.join(ROOT, ".bench_build", "wardbench")
BINARY = os.path.join(BUILD, "ward_bench")
OUT = os.path.join(ROOT, ".bench_build", "wardbench-out")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "ward_bench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    if argv == ["--build-only"]:
        return 0
    os.makedirs(OUT, exist_ok=True)
    return subprocess.run([BINARY, *argv, "--out", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
