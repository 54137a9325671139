#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-rank3 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` is a separate run that times each
layer from outside and prints every per-layer metric.  Workloads:

* ``cold-rank3`` and ``warm-rank2`` run in-process solves in a workload
  process (``inproc.py``);
* ``serve-mix`` drives a ``repro serve`` process from this one
  (``servemix.py``).

Every answer is checked (``verify_solution``, the certificate
``max_certified_bound < 1`` and ``min_slack >= 0``, and bit-identity
with an in-process serial solve where the run has a reference); a wrong
answer counts in ``failed``.  Each workload's self-checks must pass or
the run is not correct.  A metadata line precedes the result, which is
the last line of standard output.  ``--out PATH`` also saves both for
``compare.py``.  Exit status: 0 for a correct run, 1 for a run with
wrong answers or failed self-checks, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    BenchError,
    ROOT,
    child_env,
    emit,
    load_spec,
    median,
    readline,
    require_checkout,
    run_metadata,
    stop,
)

INPROC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inproc.py")
WORKLOADS = ("cold-rank3", "warm-rank2", "serve-mix")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120.0
#: Per-layer metrics that only the served path has.
SERVE_ONLY = ("serve.", "artifacts.solutions.")


def run_inproc(args, setup_repeats: int) -> dict:
    """Launch the workload process ``setup_repeats`` times; measure on the last."""
    command = [
        sys.executable, INPROC, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    setup_s = []
    for repeat in range(setup_repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), cwd=ROOT,
        )
        try:
            line = readline(proc, SETUP_TIMEOUT_S)
            if line != "READY":
                raise BenchError(f"workload process said {line!r}")
            setup_s.append(time.perf_counter() - start)
            last = repeat == setup_repeats - 1
            proc.stdin.write(b"go\n" if last else b"exit\n")
            proc.stdin.flush()
            if last:
                result = json.loads(readline(proc, 3 * args.seconds + 120))
            if proc.wait(timeout=60) != 0:
                raise BenchError(f"workload process exited {proc.returncode}")
        finally:
            stop(proc)
    if not args.trace:
        result["metrics"]["setup_s"] = median(setup_s)
    result["workers"] = 0
    return result


def run_servemix(args, setup_repeats: int, nproc: int) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import servemix

    return servemix.run(args.seed, args.seconds, bool(args.trace), nproc,
                        setup_repeats)


def shaped(names_units, metrics: dict) -> dict:
    """Exactly the metrics the spec names, in its order, with units."""
    missing = [name for name, _ in names_units if name not in metrics]
    if missing:
        raise BenchError(f"workload produced no value for {missing}")
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in names_units
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save metadata + result as JSON")
    args = parser.parse_args()

    try:
        spec = load_spec()
        require_checkout()
        meta = run_metadata()
        nproc = len(os.sched_getaffinity(0))
        setup_repeats = 1 if args.trace else SETUP_REPEATS
        if args.workload == "serve-mix":
            outcome = run_servemix(args, setup_repeats, nproc)
        else:
            outcome = run_inproc(args, setup_repeats)
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        names_units = [(entry["name"], entry["unit"]) for entry in listed]
        # The serve layers are not on an in-process workload's path and
        # read 0 there; every other metric must be measured.
        if args.trace and args.workload != "serve-mix":
            for name, _ in names_units:
                if name.startswith(SERVE_ONLY):
                    outcome["metrics"].setdefault(name, 0.0)
        metrics = shaped(names_units, outcome["metrics"])
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 2

    meta.update(
        workers=outcome["workers"], loadavg_after=list(os.getloadavg()),
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, problems=outcome["problems"][:20],
    )
    correct = outcome["failed"] == 0 and not outcome["problems"]
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    for problem in outcome["problems"][:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "result": result}, handle, indent=1)
    emit({"meta": meta})
    emit(result)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
