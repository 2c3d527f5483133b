#!/usr/bin/env python3
"""Build and run the narada end-to-end benchmark.

Run from the root of a narada checkout:

    python3 perfbench/run.py --workload corpus-campaign --seed 7 --seconds 20 --trace 0

Workloads: corpus-campaign, lint-generated, repair-corpus.  The benchmark
executable (perfbench/perfbench.ml) is built from source with dune into
.bench_build/ (release profile, no shared dune cache), then run with the
same arguments.  Its last line of standard output is the JSON result; the
exit code is non-zero when an output fails the correctness check.

Extra arguments for the benchmark's own tests (see selftest.py):
  --size tiny         a small version of the workload
  --plant race|block  corrupt one observed answer; the run must fail
  --emit-reference    print the reference answers for this seed
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus-campaign", "lint-generated", "repair-corpus"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--plant", choices=["race", "block"])
    ap.add_argument("--emit-reference", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "perfbench.ml"))):
        print("perfbench: run from the root of a narada checkout "
              "(dune-project, lib/ and perfbench/ not found)", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        b = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--scratch", os.path.join(BUILD_DIR, "perfbench")]
    if args.plant:
        cmd += ["--plant", args.plant]
    if args.emit_reference:
        cmd.append("--emit-reference")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
