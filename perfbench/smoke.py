#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload once at tiny sizes, untraced
and traced.  Asserts that each metric BENCHMARK.json names is present,
finite and carries its unit, and that the traced run's trace file parses.

    python3 perfbench/smoke.py      # from the root of a source checkout
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            where = f"{wl} --trace {trace}"
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append(f"{where}: exit {out.returncode}\n"
                                f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: not correct: {lines[-1]}")
            for metric in bench[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{where}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit "
                                    f"{got['unit']}, not {metric['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{where}: {metric['name']} not finite")
            if trace:
                trace_line = [x for x in lines if x.startswith("# trace_file")]
                path = json.loads(trace_line[0].split(":", 1)[1])
                with open(os.path.join(ROOT, path)) as f:
                    if not json.load(f)["traceEvents"]:
                        problems.append(f"{where}: empty trace {path}")
            print(f"ok   {where}" if not problems else f"...  {where}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
