#!/usr/bin/env python3
"""Runs one workload under several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of
its values as a share of their median, next to the metric's bound.

    python3 perfbench/spread.py --workload serve-k32 --seeds 1 2 3 4 5

Run it from the root of a checkout. A spread above a third of the bound
is flagged: the benchmark is not steady enough there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    steady = True
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
        steady &= m["name"] == "setup_s" or not flag
        print(f"{m['name']:<14} median {med:12.4f} {m['unit']:<5} spread {spread:7.4f}"
              f"  bound {m['bound']:.2f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
