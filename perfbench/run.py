#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload check-clean --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is an OCaml executable that links the repository's
libraries.  Those libraries are private to the repository's dune project,
so the benchmark cannot be a dune project of its own inside the source
tree; instead this script assembles a build workspace under
`.bench_build/ws` from a copy of `lib/` plus the benchmark sources in
`perfbench/_src`, builds it with dune, and runs the result.  Every
argument is passed through to the executable, which prints the result
(see perfbench/README.md).  The exit code is the executable's, or 2 when
the checkout has no `lib/` to build against.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"


def workspace(root):
    ws = os.path.join(root, BUILD_DIR, "ws")
    os.makedirs(ws, exist_ok=True)
    # Re-copy the library tree every time so a stale copy never builds;
    # copy2 keeps mtimes, so dune rebuilds nothing when nothing changed.
    for sub in ("lib", "bench"):
        dst = os.path.join(ws, sub)
        if os.path.isdir(dst):
            shutil.rmtree(dst)
    shutil.copytree(os.path.join(root, "lib"), os.path.join(ws, "lib"))
    src = os.path.join(HERE, "_src")
    shutil.copytree(os.path.join(src, "bench"), os.path.join(ws, "bench"))
    shutil.copy2(os.path.join(src, "dune-project"), ws)
    return ws


def build(ws):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bench/main.exe"],
        cwd=ws, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(r.returncode or 1)
    return os.path.join(ws, "_build", "default", "bench", "main.exe")


def main():
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "lib")):
        sys.stderr.write(
            "perfbench: no lib/ here; run from the root of a checkout\n")
        sys.exit(2)
    exe = build(workspace(root))
    args = sys.argv[1:]
    if "--nproc" not in args:
        args += ["--nproc", str(len(os.sched_getaffinity(0)))]
    sys.stdout.flush()
    r = subprocess.run([exe] + args)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
