#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
as a share of their median, next to a third of the metric's bound.

    python3 perfbench/spread.py --workload hooks --seeds 1-10

Runs from the repository root, one benchmark run at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: output check failed: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:<12} median {med:.6g}  spread {spread:.4f}  "
              f"bound/3 {m['bound'] / 3:.4f}  {flag}")


if __name__ == "__main__":
    main()
