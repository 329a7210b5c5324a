#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|toy] [--dataset <profile>]

Run from the repository root. The library (src/) and the perfbench binary
are built with CMake into .bench_build/perfbench (incremental after the
first run); build output goes to stderr. The binary's stdout passes
through unchanged, so the last stdout line is its one-line JSON summary.
Result files and traces land in .bench_build/perfbench/results unless
--out_dir names another directory.

Exit codes: the binary's (0 ok, 1 failed output check, 2 usage error);
3 when the sources are missing or the build fails (no summary printed).
"""

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def source_sha256():
    """Content hash of the benchmark and library sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unavailable"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() if result.returncode == 0 else "unavailable"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                         BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", BUILD_DIR, "--parallel", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def main(argv):
    build()
    env = dict(os.environ)
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    env["PERFBENCH_GIT_SHA"] = git_sha()
    sys.stdout.flush()
    command = [BINARY] + argv
    if not any(arg.split("=")[0] == "--out_dir" for arg in argv):
        command += ["--out_dir", RESULTS_DIR]
    return subprocess.run(command, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
