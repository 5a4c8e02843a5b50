#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md beside this file).

    python3 e2ebench/run.py --workload tpch_serial --seed 1 --seconds 20 --trace 0

Configures and builds e2ebench/ -- the driver plus the engine sources under
src/ -- with CMake in Release mode into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench), then runs the driver from the repository root. Build
output goes to stderr; the driver's stdout passes through, so the last stdout
line is the JSON result. Extra arguments (--sf, --max-queries,
--corrupt-reference) are forwarded to the driver. Compiler and driver
temporary files stay inside the build directory.

Exit status: the driver's (0 ok, 1 a correctness check failed); 2 when the
build or the arguments fail, in which case no result is printed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def source_digest():
    """Hash of the engine and benchmark sources: provenance when there is no git."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir, env):
    """Returns the driver binary's path, or None when the build failed."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=850).returncode
        except (OSError, subprocess.SubprocessError) as e:
            print(f"build step failed: {e}", file=sys.stderr)
            return None
        if rc != 0:
            return None
    binary = os.path.join(build_dir, "e2ebench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("engine sources (src/) not found next to e2ebench/", file=sys.stderr)
        return 2
    out_dir = build_root()
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(os.path.join(out_dir, "e2ebench"), env)
    if binary is None:
        print("e2ebench build failed", file=sys.stderr)
        return 2

    spill_dir = os.path.join(out_dir, "e2ebench-spill")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill_dir, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    spans_dir = os.path.join(out_dir, "e2ebench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd += ["--spans-out", os.path.join(
        spans_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd + extra, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
