#!/usr/bin/env python3
"""Compare two sets of saved benchmark runs, workload by workload.

Save runs with ``run.py --out DIR/<name>.json``, one file per run, then::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

For every workload in both sets and every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartile spread and
the change of the medians as a share of the base median.  A change worse
than the metric's bound is a regression; where either side's own spread
exceeds the bound the row reads ``unresolved`` instead of ``same``.

Refuses (exit 2) to compare runs made with different ``nproc``, worker
counts, run lengths or trace modes.  Exit 3 on a regression, else 0.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

from common import load_spec

#: Run settings that must agree between every run compared.
MUST_MATCH = ("nproc", "workers", "seconds", "trace")


def load(directory: str):
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            saved = json.load(handle)
        runs[saved["meta"]["workload"]].append(saved)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    for workload in sorted(set(base) & set(new)):
        for key in MUST_MATCH:
            seen = {run["meta"][key] for run in base[workload] + new[workload]}
            if len(seen) > 1:
                print(f"refusing: {workload} runs differ in {key}: {sorted(seen)}",
                      file=sys.stderr)
                return 2
    regressed = False
    print(f"{'workload':12} {'metric':14} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread b/n':>13}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in load_spec()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = [
                [run["result"]["metrics"][name]["value"] for run in runs[workload]]
                for runs in (base, new)
            ]
            medians = [statistics.median(values) for values in sides]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            spreads = [spread(values) for values in sides]
            if worse > bound:
                verdict, regressed = "REGRESSED", True
            elif max(spreads) > bound:
                verdict = "unresolved"
            elif worse < -max(spreads):
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:12} {name:14} {medians[0]:12.5g} {medians[1]:12.5g} "
                  f"{change:+8.1%} {spreads[0]:6.1%}/{spreads[1]:5.1%}  {verdict}")
        if not any(run["result"]["correct"] for run in new[workload]):
            print(f"{workload}: no correct run in the new set")
            regressed = True
    return 3 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
