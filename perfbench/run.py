#!/usr/bin/env python3
"""Build and run the jcache benchmark.

Run from the root of a jcache checkout:

    python3 perfbench/run.py --workload paper-grid --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py compare BEFORE.jsonl AFTER.jsonl

The first call configures and builds perfbench/ (the jcache library,
jcached and the driver) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset.  The driver's
output passes through unchanged: its last line is the JSON result.
Each run also appends a record to <build>/results.jsonl.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-1 over the sources the benchmark builds, for the result record."""
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def build(build_dir):
    generator = ["-G", "Ninja"] if subprocess.run(
        ["ninja", "--version"], capture_output=True).returncode == 0 else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "jcache-perfbench", "jcached"],
                   check=True, stdout=sys.stderr)


def main(argv):
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"run from the root of a jcache checkout ({needed} "
                 "is missing)")
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}", 1)

    driver = os.path.join(build_dir, "jcache-perfbench")
    if argv[:1] == ["compare"]:
        cmd = [driver] + argv + ["--benchmark",
                                 os.path.join(ROOT, "BENCHMARK.json")]
    else:
        cmd = [driver] + argv + [
            "--jcached", os.path.join(build_dir, "tools", "jcached"),
            "--work-dir", os.path.join(build_dir, "work"),
            "--results", os.path.join(build_dir, "results.jsonl"),
            "--commit", commit(),
            "--source-digest", source_digest(),
        ]
    # On a stop the driver stops the daemons it launched, then exits.
    proc = subprocess.Popen(cmd)
    signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    signal.signal(signal.SIGINT, lambda *_: proc.terminate())
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
