#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 lisabench/spread.py --workloads compile,serve-hit \
        --seeds 1-10 [--seconds 20] [--trace 0] [--jsonl out.jsonl]

For every workload and metric, prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles
with n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. Each run's result and provenance (with the trained
model's fingerprint) are appended to --jsonl when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    provenance = {}
    if len(lines) >= 2 and lines[-2].startswith('{"provenance"'):
        provenance = json.loads(lines[-2])["provenance"]
    return json.loads(lines[-1]), provenance


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--jsonl")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            result, provenance = run_once(workload, seed, args.seconds,
                                          args.trace)
            if args.jsonl:
                with open(args.jsonl, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": result,
                                        "provenance": provenance}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']}"
                      f" failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = "-"
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = f"{(q[2] - q[0]) / abs(med):.3f}"
            print(f"{workload:12s} {name:28s} median {med:12.5g} "
                  f"iqr/median {spread:>6s} bound {bounds.get(name)} "
                  f"n={len(vals)}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
