#!/usr/bin/env python3
"""Summarises and compares lplow_bench run sets.

    python3 bench/e2e/compare.py A/            # medians and IQRs of one set
    python3 bench/e2e/compare.py A/ B/         # B (change) against A (parent)

A run set is a directory of lplow_bench results files, as written by
`bench/e2e/run.sh --repeat=N --out=DIR` (any depth; traced runs are skipped).
For every workload and end-to-end metric it prints each side's median and
interquartile range (IQR, as a share of the median) and the change of B's
median against A's, judged against the metric's bound in BENCHMARK.json:

  ok          B is not worse than A by more than the bound
  WORSE       B is worse than A by more than the bound (exit status 1)
  unresolved  A's own IQR is wider than the bound, unless every B run reads
              better than every A run
  gain        B wins at least 9 of every 10 runs paired in order, and the
              medians differ by more than A's IQR (README.md, "Comparing")

Per-layer medians follow, without a verdict. Runs of one workload and seed
must agree on every transcript hash and on kb_per_op, which are exact.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    path = os.path.join(HERE, "..", "..", "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(directory):
    """{workload: [results dict, ...]} in path order, untraced runs only."""
    runs = {}
    for root, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if not name.endswith(".json") or name.startswith("trace-"):
                continue
            with open(os.path.join(root, name)) as f:
                result = json.load(f)
            facts = result.get("facts", {})
            if facts.get("trace") != "0":
                continue
            runs.setdefault(facts["workload"], []).append(result)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def check_exact(runs, problems):
    seen = {}
    for workload, results in runs.items():
        for r in results:
            # The inputs follow from the seed and the run length.
            key = (workload, r["facts"]["seed"], r["facts"]["seconds"])
            exact = (r["facts"]["transcript"],
                     r["end_to_end"]["kb_per_op"]["value"])
            if seen.setdefault(key, exact) != exact:
                problems.append(f"{workload} seed {key[1]}: transcript or "
                                f"kb_per_op differs between runs")


def values(results, section, metric):
    return [r[section][metric]["value"] for r in results
            if metric in r[section]]


def verdict(spec, a, b):
    lower = spec["better"] == "lower"
    a_med, a_iqr = summary(a)
    b_med, _ = summary(b)
    if a_med == 0:
        return "n/a", 0.0
    change = (b_med - a_med) / abs(a_med)
    worse = change if lower else -change
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(change) > a_iqr):
        return "gain", change
    if a_iqr > spec["bound"]:
        beats_all = (max(b) < min(a)) if lower else (min(b) > max(a))
        if not beats_all:
            return "unresolved", change
    if worse > spec["bound"]:
        return "WORSE", change
    return "ok", change


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds()
    a_runs = load_runs(argv[1])
    b_runs = load_runs(argv[2]) if len(argv) == 3 else None
    if not a_runs:
        print(f"no results under {argv[1]}", file=sys.stderr)
        return 2
    problems = []
    check_exact(a_runs, problems)
    if b_runs is not None:
        check_exact(b_runs, problems)
    regressed = False
    for workload in sorted(a_runs):
        a = a_runs[workload]
        b = b_runs.get(workload, []) if b_runs is not None else None
        header = f"{workload}: A {len(a)} runs"
        if b is not None:
            header += f", B {len(b)} runs"
        print(header)
        for name, spec in bounds.items():
            av = values(a, "end_to_end", name)
            if not av:
                continue
            a_med, a_iqr = summary(av)
            line = (f"  {name:14s} {spec['unit']:6s} A {a_med:12.5g} "
                    f"IQR {100 * a_iqr:5.1f}%")
            if b:
                bv = values(b, "end_to_end", name)
                b_med, b_iqr = summary(bv)
                v, change = verdict(spec, av, bv)
                regressed |= v == "WORSE"
                line += (f"  B {b_med:12.5g} IQR {100 * b_iqr:5.1f}%  "
                         f"{100 * change:+6.1f}% (bound "
                         f"{100 * spec['bound']:.0f}%) {v}")
            print(line)
        layer_names = sorted({k for r in a for k in r["per_layer"]})
        for name in layer_names:
            a_med, _ = summary(values(a, "per_layer", name))
            line = f"    {name:42s} A {a_med:12.5g}"
            if b:
                bv = values(b, "per_layer", name)
                if bv:
                    line += f"  B {summary(bv)[0]:12.5g}"
            print(line)
    for p in problems:
        print("EXACT MISMATCH: " + p)
    return 1 if regressed or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
