#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mld-cohort-dense --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds libexion plus the benchmark into
.bench_build/ (Release); later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: nonzero, with no result
line, when the build or the run fails.
"""

import fcntl
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run measures at most 60 s plus set-up, drain and verification;
# past this the benchmark is hung, not slow.
RUN_TIMEOUT_S = 170


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Serialises concurrent first runs in one checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        # The Makefile appears only once configuring has succeeded.
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-G", "Unix Makefiles",
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--target", target,
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def source_digest():
    """sha256 over the library sources and root build file: identifies
    the code under test where no git metadata exists."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files))
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # Only ask git inside a checkout that has its own metadata; git
    # would otherwise search the parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    # Turn SIGTERM into an exception: subprocess.run then kills and
    # reaps the running child before this process exits.
    signal.signal(signal.SIGTERM,
                  lambda signum, _: sys.exit(128 + signum))
    args = sys.argv[1:]
    selftest = "--selftest" in args
    try:
        binary = build("perfbench_selftest" if selftest else "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if selftest:
        return subprocess.run([binary], stdout=sys.stderr).returncode
    cmd = [binary, *args, "--commit", commit(),
           "--source-digest", source_digest(),
           "--trace-dir", os.path.join(BUILD, "traces")]
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
