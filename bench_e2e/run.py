#!/usr/bin/env python3
"""Builds and runs the deployed-path benchmark.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
bench_e2e (and the TriggerMan libraries from src/) into .bench_build/ as
a Release build; later runs rebuild only what changed. Build output goes
to standard error, so the last line of standard output is the program's
JSON result. The workload's reference rate, which sizes both loops, comes
from bench_e2e/spec.json.
Extra flags (--tiny, --perturb-reference) are passed through for the
self-test.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OPTIMISED = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", "4"],
        stdout=sys.stderr,
        env=env,
        check=True,
    )
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type not in OPTIMISED:
        raise RuntimeError("build type %r is not optimised" % build_type)
    return os.path.join(BUILD, "bench_e2e")


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench_e2e"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        log("unknown workload %r" % args.workload)
        return 2
    rate = spec["workloads"][args.workload]["reference_tokens_per_s"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError, RuntimeError) as e:
        log("build failed: %s" % e)
        return 1

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--reference-rate", repr(float(rate)),
        "--commit", commit_id(),
    ] + extra
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
