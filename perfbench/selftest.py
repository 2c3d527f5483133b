#!/usr/bin/env python3
"""The benchmark's own tests, on the tiny size of every workload.

Run from the root of a narada checkout:

    python3 perfbench/selftest.py

Checks that every workload passes its correctness check untraced and
traced and prints exactly the metrics BENCHMARK.json names, that a
planted wrong answer (one race dropped, one lint block altered) makes the
run exit non-zero with "correct": false, and that the benchmark fails
without printing a result in a directory that holds only BENCHMARK.json
and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = "7"


def run(args, cwd="."):
    p = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p.stderr


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in (("0", end_to_end), ("1", per_layer)):
            code, r, err = run(["--workload", name, "--seed", SEED, "--seconds", "2",
                                "--trace", trace, "--size", "tiny"])
            expect(code == 0 and r is not None and r["correct"],
                   "%s trace %s passes its check%s" % (name, trace,
                                                        "" if code == 0 else ": " + err.strip()))
            if r is None:
                continue
            expect(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                   "%s trace %s prints exactly the four result keys" % (name, trace))
            expect({k: v["unit"] for k, v in r["metrics"].items()} == wanted,
                   "%s trace %s prints every metric of BENCHMARK.json with its unit"
                   % (name, trace))
            expect(r["attempted"] >= 1 and r["failed"] <= r["attempted"],
                   "%s trace %s counts verdicts" % (name, trace))

    for name, plant in (("corpus-campaign", "race"), ("lint-generated", "block"),
                        ("repair-corpus", "race")):
        code, r, _ = run(["--workload", name, "--seed", SEED, "--seconds", "1",
                          "--trace", "0", "--size", "tiny", "--plant", plant])
        expect(code != 0 and r is not None and not r["correct"],
               "%s with a planted wrong answer (%s) is rejected" % (name, plant))

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, r, _ = run(["--workload", bench["workloads"][0]["name"], "--seed", SEED,
                      "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and r is None,
           "a directory with only the benchmark's files fails without a result")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
