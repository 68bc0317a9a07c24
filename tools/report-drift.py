#!/usr/bin/env python3
"""Compare two JSONL suite reports: every non-float field exact, float fields within a bound.

    python3 tools/report-drift.py OLD NEW [--ignore cache] [--max-abs 1e-6]

OLD and NEW are JSONL reports of the same suite (``contango-cts suite
--report jsonl``, or a golden under ``tests/golden/``), one job per line.
Line ``k`` of OLD is paired with line ``k`` of NEW, and their JSON values
are walked together:

* objects must have the same keys, and arrays the same length;
* strings, booleans, nulls and integers must be equal;
* a number that is a float on either side is a float field: its absolute
  drift ``|new - old|`` and relative drift ``|new - old| / |old|`` are
  recorded under its path, with array indices dropped (``stages[].clr_ps``).

``--ignore KEY`` (repeatable) skips every field named KEY at any depth; for
example ``--ignore cache`` skips the per-job cache counters of the
``--cache-dir`` goldens, which a change to the solver's numbers may shift.

The script prints, per float field, its largest absolute and relative drift
and the job where the absolute one occurs, then exits 1 if the reports
differ in their line count or in any non-float field, or if a float drifts
by more than ``--max-abs`` (default 1e-6). Non-finite floats must be equal.
"""

import argparse
import json
import math
import sys


def walk(old, new, path, ignore, floats, mismatches):
    """Pairs two JSON values; records float drifts and every other difference."""
    is_float = any(isinstance(x, float) for x in (old, new))
    is_number = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new))
    if is_float and is_number:
        if old == new:
            drift = 0.0
        elif math.isfinite(old) and math.isfinite(new):
            drift = abs(new - old)
        else:
            mismatches.append(f"{path}: {old!r} -> {new!r}")
            return
        relative = drift / abs(old) if old != 0 else (0.0 if drift == 0 else math.inf)
        floats.setdefault(path, []).append((drift, relative))
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            mismatches.append(f"{path or '.'}: keys {sorted(old)} -> {sorted(new)}")
            return
        for key in old:
            if key not in ignore:
                walk(old[key], new[key], f"{path}.{key}" if path else key, ignore,
                     floats, mismatches)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            mismatches.append(f"{path}: {len(old)} items -> {len(new)}")
            return
        for a, b in zip(old, new):
            walk(a, b, f"{path}[]", ignore, floats, mismatches)
    elif old != new or type(old) is not type(new):
        mismatches.append(f"{path}: {old!r} -> {new!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the reference JSONL report")
    parser.add_argument("new", help="the JSONL report to check against it")
    parser.add_argument("--ignore", action="append", default=[], metavar="KEY",
                        help="skip every field of this name (repeatable)")
    parser.add_argument("--max-abs", type=float, default=1e-6,
                        help="largest absolute drift allowed in a float field (default 1e-6)")
    args = parser.parse_args()

    with open(args.old) as f:
        old_lines = f.read().splitlines()
    with open(args.new) as f:
        new_lines = f.read().splitlines()
    if len(old_lines) != len(new_lines):
        sys.exit(f"{args.old} has {len(old_lines)} lines, {args.new} has {len(new_lines)}")

    # Per field: the largest absolute drift, the job it occurs in, and the
    # largest relative drift.
    worst = {}
    mismatches = []
    values = moved = 0
    for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        old, new = json.loads(a), json.loads(b)
        job = f"line {number}"
        if isinstance(old, dict) and "benchmark" in old:
            job += f" ({old['benchmark']})"
        floats, found = {}, []
        walk(old, new, "", set(args.ignore), floats, found)
        mismatches.extend(f"{job}: {m}" for m in found)
        for path, drifts in floats.items():
            values += len(drifts)
            moved += sum(d > 0 for d, _ in drifts)
            top_abs, where, top_rel = worst.get(path, (0.0, "-", 0.0))
            for drift, relative in drifts:
                if drift > top_abs:
                    top_abs, where = drift, job
                top_rel = max(top_rel, relative)
            worst[path] = (top_abs, where, top_rel)

    ignored = f" (ignoring {', '.join(args.ignore)})" if args.ignore else ""
    print(f"{len(old_lines)} line pairs, {values} float values of which {moved} moved{ignored}")
    width = max([len("field")] + [len(p) for p in worst])
    print(f"{'field':<{width}}  {'max abs drift':>13}  {'max rel drift':>13}  where (abs)")
    for path in sorted(worst):
        top_abs, where, top_rel = worst[path]
        print(f"{path:<{width}}  {top_abs:>13.3g}  {top_rel:>13.3g}  {where}")
    for mismatch in mismatches:
        print(f"differs: {mismatch}")
    past = [p for p, (a, _, _) in worst.items() if a > args.max_abs]
    if past:
        print(f"past --max-abs {args.max_abs:g}: {', '.join(sorted(past))}")
    if mismatches or past:
        sys.exit(1)
    print(f"every non-float field equal; every float within {args.max_abs:g}")


if __name__ == "__main__":
    main()
