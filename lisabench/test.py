#!/usr/bin/env python3
"""The benchmark's own tests.

Usage (from the repository root):

    python3 lisabench/test.py [--quick]

1. Builds and runs the C++ unit tests (percentile, geomean and
   self-time arithmetic on fixed inputs; identical request bytes for the
   same seed; the result-line format).
2. Checks that the metric names and units the binary prints are the
   ones BENCHMARK.json declares, and that BENCHMARK.json keeps the
   contract's shape.
3. Smoke-runs every workload at minimum length, untraced and traced,
   and checks each result line (skipped with --quick).
4. Runs the benchmark command in a directory holding only BENCHMARK.json
   and the benchmark's own files, where it must fail without printing a
   result (skipped with --quick).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def listed_metrics():
    out = subprocess.run([run.BINARY, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    lists = {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        kind, name, unit = line.split()
        lists[kind][name] = unit
    return lists


def check_contract(bench, lists):
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(bench) != expected:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        if declared != lists[kind]:
            fail(f"{kind}: BENCHMARK.json {declared} != lisabench {lists[kind]}")
        for m in bench[kind]:
            keys = {"name", "unit", "better"} | (
                {"bound"} if kind == "end_to_end" else set())
            if set(m) != keys or m["better"] not in ("lower", "higher"):
                fail(f"{kind} entry {m}")
    if not any(m["name"] == "setup_s" for m in bench["end_to_end"]):
        fail("no setup_s metric")
    print("ok: metric names and units match BENCHMARK.json")


def smoke(bench, lists):
    # serve-hit is not in BENCHMARK.json (too unsteady to gate on) but
    # stays runnable, so it is smoke-tested too.
    for name in [w["name"] for w in bench["workloads"]] + ["serve-hit"]:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", name, "--seed", "3",
                                      "--seconds", "1", "--trace",
                                      str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=300)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                fail(f"{name} trace={trace}: exit {out.returncode}\n"
                     f"{out.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                fail(f"{name}: result keys {sorted(result)}")
            kind = "per_layer" if trace else "end_to_end"
            if set(result["metrics"]) != set(lists[kind]):
                fail(f"{name} trace={trace}: metrics differ from "
                     f"the {kind} list")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                fail(f"{name} trace={trace}: {result}")
            for metric, m in result["metrics"].items():
                if m["unit"] != lists[kind][metric]:
                    fail(f"{name}: unit of {metric}")
                if kind == "end_to_end" and not m["value"] > 0:
                    fail(f"{name}: {metric} = {m['value']}")
            print(f"ok: smoke {name} trace={trace} "
                  f"attempted={result['attempted']}")


def incomplete_checkout(bench):
    scratch = os.path.join(run.BUILD, "incomplete-checkout")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(scratch, p))
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                              "--seed", "1", "--seconds", "1", "--trace",
                              "0"]
    out = subprocess.run(cmd, cwd=scratch, capture_output=True, text=True,
                         timeout=180)
    shutil.rmtree(scratch, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        fail("the benchmark ran without the repository's sources")
    print("ok: fails without the repository's sources")


def main():
    quick = "--quick" in sys.argv[1:]
    if not run.build(["lisabench", "lisabench_tests"]):
        fail("build")
    unit = subprocess.run([os.path.join(run.BUILD, "lisabench_tests")])
    if unit.returncode != 0:
        fail("unit tests")
    bench = load_benchmark()
    lists = listed_metrics()
    check_contract(bench, lists)
    if not quick:
        smoke(bench, lists)
        incomplete_checkout(bench)
    print("all benchmark tests passed")


if __name__ == "__main__":
    main()
