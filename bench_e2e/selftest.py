#!/usr/bin/env python3
"""Self-test of the deployed-path benchmark.

    python3 bench_e2e/selftest.py

Run from the repository root. Checks that BENCHMARK.json parses and agrees
with bench_e2e/spec.json; runs every workload at a tiny size, untraced and
traced, and checks that each run passes its output check and prints
exactly the metric names and units BENCHMARK.json declares; and checks
that the output check rejects a deliberately perturbed reference count.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("selftest: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                     proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % " ".join(cmd))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    return result


def check_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail("%s: missing %s, unexpected %s, unit mismatch %s"
             % (what, missing, extra, units))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (what, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(spec["workloads"]):
        fail("BENCHMARK.json workloads %s != spec.json %s"
             % (names, sorted(spec["workloads"])))
    layer_names = sorted(m["name"] for m in bench["per_layer"])
    if layer_names != sorted(spec["per_layer"]):
        fail("per-layer metrics differ between BENCHMARK.json and spec.json")
    print("selftest: BENCHMARK.json parses and matches spec.json")

    for workload in names:
        untraced = run(workload, 0)
        traced = run(workload, 1)
        for result, trace in ((untraced, 0), (traced, 1)):
            what = "%s --trace %d" % (workload, trace)
            if not result["correct"] or result["failed"] != 0:
                fail("%s: output check failed (%d of %d)"
                     % (what, result["failed"], result["attempted"]))
            check_metrics(result,
                          bench["end_to_end"] if trace == 0
                          else bench["per_layer"], what)
        print("selftest: %s ok (%d tokens checked)"
              % (workload, untraced["attempted"]))

    perturbed = run(names[0], 0, "--perturb-reference")
    if perturbed["correct"] or perturbed["failed"] == 0:
        fail("a perturbed reference count was not rejected")
    print("selftest: perturbed reference rejected (%d of %d tokens failed)"
          % (perturbed["failed"], perturbed["attempted"]))
    print("selftest: PASS")


if __name__ == "__main__":
    main()
