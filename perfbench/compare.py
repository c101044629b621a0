#!/usr/bin/env python3
"""Compares benchmark records of a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds record files copied from .bench_work/records/.
Records are compared only within one workload and trace mode, and only
when every record on both sides has the same host and build fingerprint;
otherwise the script refuses.  It prints, per metric, each side's median
and quartiles and the change's median as a share of the parent's.
"""

import json
import os
import statistics
import sys


def load(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                records.append(json.load(f))
    return records


def identity(record):
    fp = record["fingerprint"]
    return json.dumps({"host": fp["host"], "build": fp["build"]},
                      sort_keys=True)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    ids = {identity(r) for r in base + change}
    if len(ids) != 1:
        print("refusing to compare records from different hosts or builds:",
              *sorted(ids), sep="\n  ", file=sys.stderr)
        return 2
    groups = sorted({(r["workload"], r["trace"]) for r in base + change})
    for workload, trace in groups:
        side = [[r for r in recs if (r["workload"], r["trace"]) ==
                 (workload, trace) and not r["smoke"]]
                for recs in (base, change)]
        print(f"{workload} trace={trace}: {len(side[0])} parent, "
              f"{len(side[1])} change records")
        names = sorted({m for recs in side for r in recs for m in r["metrics"]})
        for m in names:
            cols = []
            for recs in side:
                xs = [r["metrics"][m] for r in recs if m in r["metrics"]]
                cols.append(quartiles(xs) if xs else None)
            if None in cols:
                continue
            (b1, bm, b3), (c1, cm, c3) = cols
            share = f"{cm / bm:7.3f}" if bm else "    n/a"
            print(f"  {m:26s} parent {bm:12.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"change {cm:12.6g} [{c1:.6g}, {c3:.6g}]  ratio {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
