#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

The spread of a metric is the distance between the first and third quartile
of its per-run values (``statistics.quantiles(values, n=4)``) as a share of
their median; a steady benchmark keeps it well inside the metric's ``bound``
from BENCHMARK.json.

    python3 perfbench/spread.py --workload ispd09-flow --seeds 1,2,3,4,5

Run it from the repository root. Each run's JSON result line is appended to
``--log`` (default: none) so a set of runs can be compared with another.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--log", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds.split(","):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(seconds), "--trace", "0",
        ]
        run = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)

    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread <= bounds[name] / 3 else ("WITHIN BOUND" if spread <= bounds[name] else "OVER BOUND")
        print(f"{name:<16} median {med:12.5g}  spread {spread:7.4f}  bound {bounds[name]:.2f}  {flag}")


if __name__ == "__main__":
    main()
