#!/usr/bin/env python3
"""Build and run the rtlock benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-grid --seed 1 --seconds 30 --trace 0

Workloads: eval-grid, serve-attack, serve-lock-cold (see perfbench/README.md).
The first run configures and builds perfbench/ (which builds the rtlock
library and CLI from the checkout) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild only what changed.  Build output
goes to stderr.  The benchmark program's stdout passes through unchanged: metric lines,
then one JSON result line.  The exit status is the program's (0 = every output
check passed), or 3 when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("eval-grid", "serve-attack", "serve-lock-cold")


def source_digest(root):
    """sha256 over the checkout's sources, so a record names the code it ran."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"  # an exported checkout; the source digest still names the code
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10, check=False)
    except OSError:
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def build(bench_dir, build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env, check=False).returncode != 0:
            return False
    command = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, env=env, check=False).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    # Compiler and program temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(bench_dir, build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload=" + args.workload,
        "--seed=" + str(args.seed),
        "--seconds=" + repr(args.seconds),
        "--trace=" + str(args.trace),
        "--root=" + root,
        "--bench-dir=" + bench_dir,
        "--out-dir=" + out_dir,
        "--rtlock=" + os.path.join(build_dir, "rtlock", "src", "cli", "rtlock"),
        "--git-sha=" + git_sha(root),
        "--source-digest=" + source_digest(root),
    ]
    sys.stdout.flush()
    return subprocess.run(command, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
