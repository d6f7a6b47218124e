"""Summarise paired benchmark runs of two checkouts as one BENCH file.

Run ``perfbench/run.py --trace 0`` in a checkout of the parent commit and in
one of the change, alternating which side runs first and using the same
workload and seed for both runs of a pair.  Then, from the repository root:

    python3 scripts/bench_summary.py --parent PARENT/perfbench/out \\
        --change CHANGE/perfbench/out --note "what changed" --out BENCH_6.json

Every ``<workload>.seed<n>.trace0.json`` record present in both directories
makes one pair.  For each end-to-end metric of ``BENCHMARK.json`` the file
holds each side's runs, median and quartiles (the median alone for one
run), how many pairs the change won (ties count for neither side), the
metric's ``bound`` and a ``verdict``, the first of these that holds:

- ``worse``: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
- ``unresolved``: the parent's runs spread (interquartile range over
  median) wider than ``bound``, or there is one run, and not every change
  run beats every parent run;
- ``better``: at least ten pairs, the change wins nine tenths of them, and
  the medians differ by more than the parent's interquartile range;
- ``within_bound``: every other case.

Each workload also lists the ops each run attempted, per side and in seed
order: the harness keeps a record per op, so ``peak_rss_mb`` grows with
that count as well as with the library.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = re.compile(r"(?P<workload>.+)\.seed(?P<seed>\d+)\.trace0\.json$")


def records(directory: str) -> dict:
    """{(workload, seed): run record} of the untraced runs in directory."""
    found = {}
    for path in glob.glob(os.path.join(directory, "*.trace0.json")):
        match = RECORD.match(os.path.basename(path))
        if match:
            with open(path) as handle:
                found[match["workload"], int(match["seed"])] = json.load(
                    handle)
    return found


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": statistics.median(values), "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(a: list[float], b: list[float], higher: bool, wins: int,
            bound: float, iqr: float | None) -> str:
    """The verdict on parent runs a and change runs b (see the module
    docstring); ``iqr`` is the parent's, None for a single run."""
    pa, pb = statistics.median(a), statistics.median(b)
    gain = pb - pa if higher else pa - pb
    if -gain > bound * abs(pa):
        return "worse"
    beats_all = min(b) > max(a) if higher else max(b) < min(a)
    if (iqr is None or iqr > bound * abs(pa)) and not beats_all:
        return "unresolved"
    if len(a) >= 10 and 10 * wins >= 9 * len(a) and gain > iqr:
        return "better"
    return "within_bound"


def summarise(parent: dict, change: dict, metrics: list[dict]) -> dict:
    out = {}
    for workload in sorted({w for w, _ in parent.keys() & change.keys()}):
        seeds = sorted(s for w, s in parent.keys() & change.keys()
                       if w == workload)
        table = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            a = [parent[workload, s]["metrics"][name]["value"]
                 for s in seeds]
            b = [change[workload, s]["metrics"][name]["value"]
                 for s in seeds]
            if None in a or None in b:
                continue
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            pa, pb = spread(a), spread(b)
            iqr = pa["q3"] - pa["q1"] if "q1" in pa else None
            table[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": pa, "change": pb, "change_wins": wins,
                "median_ratio": (pb["median"] / pa["median"]
                                 if pa["median"] else None),
                "parent_iqr": iqr, "bound": metric["bound"],
                "verdict": verdict(a, b, higher, wins, metric["bound"], iqr)}
        out[workload] = {
            "pairs": len(seeds), "seeds": seeds,
            "attempted": {"parent": [parent[workload, s]["attempted"]
                                     for s in seeds],
                          "change": [change[workload, s]["attempted"]
                                     for s in seeds]},
            "metrics": table}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="perfbench/out of the parent checkout")
    parser.add_argument("--change", required=True,
                        help="perfbench/out of the change's checkout")
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parent, change = records(args.parent), records(args.change)
    if not parent.keys() & change.keys():
        sys.stderr.write("no workload and seed was run on both sides\n")
        return 2
    env = next(iter(change.values()))["environment"]
    summary = {
        "note": args.note,
        "command": bench["command"] + ["--trace", "0"],
        "run_seconds": bench["run_seconds"],
        "environment": {k: env[k] for k in ("python", "numpy", "scipy",
                                            "nproc", "machine")},
        "workloads": summarise(parent, change, bench["end_to_end"]),
    }
    with open(args.out, "w") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
