#!/usr/bin/env python3
"""Build dsebench from this checkout's sources, then run one workload.

    python3 dsebench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The first call configures and builds the
library and the dsebench program (CMake, Release) under $CARGO_TARGET_DIR,
or under .bench_build when that is unset; later calls rebuild only what
changed.
Build output goes to stderr, so the last line of stdout is the program's
JSON result.  Extra flags (--tiny, --corrupt-reference, --verify-references,
--print-references) are passed through to the program.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("ASPMT_GIT_REV", "unknown")


def build(build_dir):
    """Configure once, then build; returns the program's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("dsebench: no library sources next to the benchmark", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "dsebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "dsebench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "dsebench")
    binary = build(build_dir)
    if binary is None:
        print("dsebench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--references", os.path.join(HERE, "reference_fronts.txt"),
           "--out", out_dir, "--git-rev", git_rev()] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
