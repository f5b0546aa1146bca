"""Compare benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a record written by ``run.py`` into ``.perfbench-out/``.
Records made on different hosts are never compared: the command
refuses when any two host fingerprints differ.  For every
workload and end-to-end metric it prints each side's median and
quartiles, the change of the medians, and a verdict against the
metric's bound in ``BENCHMARK.json``: ``worse`` when the new median is
worse by more than the bound, ``unresolved`` when the base runs spread
wider than the bound, else ``not worse``.  Claiming a gain takes the
paired-run rule of the README, not this table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from checkout import ROOT


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    opts = parser.parse_args(argv)
    sides = {}
    for side in ("base", "new"):
        sides[side] = [json.loads(p.read_text())
                       for p in getattr(opts, side)]
    records = sides["base"] + sides["new"]
    hosts = {json.dumps(r["host"], sort_keys=True) for r in records}
    if len(hosts) != 1:
        print("perfbench: records come from different hosts; refusing to "
              "compare:\n  " + "\n  ".join(sorted(hosts)), file=sys.stderr)
        return 2
    if any(r["trace"] for r in records):
        print("perfbench: traced records carry no end-to-end metrics",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted({r["workload"] for r in records})
    for workload in workloads:
        print(workload)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = [r["end_to_end"][name] for r in sides["base"]
                    if r["workload"] == workload]
            new = [r["end_to_end"][name] for r in sides["new"]
                   if r["workload"] == workload]
            if not base or not new:
                continue
            b1, b2, b3 = quartiles(base)
            n1, n2, n3 = quartiles(new)
            change = (n2 - b2) / b2
            worse = -change if metric["better"] == "higher" else change
            if worse > bound:
                verdict = "worse"
            elif (b3 - b1) / b2 > bound:
                verdict = "unresolved"
            else:
                verdict = "not worse"
            print(f"  {name:14s} base {b2:.6g} [{b1:.6g}, {b3:.6g}] "
                  f"new {n2:.6g} [{n1:.6g}, {n3:.6g}] "
                  f"{change:+.1%} (bound {bound:.0%}) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
