#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and compare every end-to-end metric.

    python3 tools/perf-pairs.py --parent PARENT_BIN --change CHANGE_BIN \\
        --workload ispd09-flow --seeds 21-30 --log pairs.jsonl

PARENT_BIN and CHANGE_BIN are perfbench executables, each built in its own
checkout with

    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

(the executable is ``perfbench/target/release/contango_perfbench``). Both
run from the current directory, the repository root; ``serve-warm`` keeps
its store in ``.perfbench_tmp/`` there.

The script makes one pair of ``--trace 0`` runs per seed, in the order
given. The parent runs first in odd pairs (the first, third, ...) and the
change first in even ones. It stops at the first run that exits nonzero or
whose last line is not ``"correct": true`` with ``failed`` 0. For each
end-to-end metric of BENCHMARK.json it then prints:

* each side's median and quartiles (``statistics.quantiles(values, n=4)``);
* the pairs the change won, lost and tied, judged by the metric's ``better``;
* the change's median minus the parent's against the parent's
  interquartile range, which a claimed gain must exceed;
* the change's interquartile range against ``bound`` times the parent's
  median, and whether that range is inside the bound;
* whether every change run beats every parent run, which makes a metric
  whose range is past its bound level or better.

``--log FILE`` appends each run's result line, tagged with its pair, side,
workload and seed. BENCHMARK.json is read from the repository this script
sits in; nothing is written under ``perfbench/``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_seeds(text):
    """Seeds as a comma-separated list whose items are N or an inclusive range A-B."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(str(s) for s in range(int(lo), int(hi or lo) + 1))
    return seeds


def run(binary, workload, seed, seconds):
    """One untraced run; returns its result object or exits with the reason it failed."""
    command = [binary, "--workload", workload, "--seed", seed,
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{binary} seed {seed}: exit {done.returncode}\n{done.stderr}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit(f"{binary} seed {seed}: last line is not a result: {lines[-1]}")
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"{binary} seed {seed}: correct {result.get('correct')}, "
                 f"{result.get('failed')} of {result.get('attempted')} operations failed\n"
                 f"{done.stderr}")
    return result


def compare(metric, parent, change):
    """One report line for a metric over paired runs."""
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    won = sum(better(c, p) for p, c in zip(parent, change))
    lost = sum(better(p, c) for p, c in zip(parent, change))
    tied = len(parent) - won - lost
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    limit = metric["bound"] * pm
    spread = "inside" if c3 - c1 <= limit else "PAST"
    worst_change = max(change) if lower else min(change)
    best_parent = min(parent) if lower else max(parent)
    every = "yes" if better(worst_change, best_parent) else "no"
    return (f"{metric['name']:<15} parent {pm:.4g} ({p1:.4g}-{p3:.4g})  "
            f"change {cm:.4g} ({c1:.4g}-{c3:.4g})  "
            f"won {won}/{len(parent)}, lost {lost}, tied {tied}\n"
            f"{'':<15} median change-parent {cm - pm:+.4g} vs parent IQR {p3 - p1:.4g};  "
            f"change IQR {c3 - c1:.4g} vs bound {limit:.4g}: {spread};  "
            f"every change run better: {every}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="perfbench executable of the parent")
    parser.add_argument("--change", required=True, help="perfbench executable of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="for example 21-30 or 1,3,5")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--log", default=None, help="append each run's result line here")
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        sys.exit("need at least two seeds to take quartiles")
    values = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
    binaries = {"parent": args.parent, "change": args.change}
    for pair, seed in enumerate(seeds, start=1):
        order = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
        for side in order:
            result = run(binaries[side], args.workload, seed, seconds)
            if args.log:
                with open(args.log, "a") as log:
                    tagged = {"pair": pair, "side": side, "workload": args.workload,
                              "seed": seed, **result}
                    log.write(json.dumps(tagged) + "\n")
            for name, vals in values[side].items():
                vals.append(result["metrics"][name]["value"])
        print(f"pair {pair} seed {seed} ({order[0]} first): "
              + " ".join(f"{m['name']}={values['parent'][m['name']][-1]:.4g}/"
                         f"{values['change'][m['name']][-1]:.4g}" for m in metrics),
              flush=True)

    print(f"{args.workload}: {len(seeds)} pairs of {seconds} s runs, values parent/change")
    for metric in metrics:
        name = metric["name"]
        print(compare(metric, values["parent"][name], values["change"][name]))


if __name__ == "__main__":
    main()
