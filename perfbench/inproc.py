"""Workload process of the in-process workloads (cold-rank3, warm-rank2).

Started by ``run.py``; it is never run by hand.  Protocol on stdin and
stdout: the process sets up, prints ``READY`` and waits for one line.
``exit`` ends it (a set-up-only launch, used to take the median of
several set-ups); ``go`` starts the measurement, whose result is printed
as one JSON line.

Every solve runs through ``repro.core.sequential.solve(instance,
scheduler=SerialScheduler())`` on an instance built from the seed before
the clock starts, after an untimed ``gc.collect()``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from typing import Dict, List

from repro.artifacts import STORE
from repro.core.sequential import solve
from repro.generators.graphs import random_regular_graph
from repro.generators.hypergraphs import partition_rounds_triples
from repro.generators.instances import (
    all_zero_edge_instance,
    all_zero_triple_instance,
)
from repro.lll.verify import verify_solution
from repro.runtime import SerialScheduler

from common import median
from layers import (
    LayerLedger,
    answer_problems,
    counters,
    delta,
    same_result,
    solve_pair,
    timed_rerun,
)


def _derived_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


class ColdRank3:
    """Theorem 1.3 on the cold path: a fresh rank-3 shape per solve.

    ``partition_rounds_triples(n, 3, ·)`` → ``all_zero_triple_instance(n,
    ·, 5)``: every node in 3 triples, ``p = 5^-3``, ``d <= 6``, so
    ``p·2^d = 64/125``.  The store is cleared before every solve, so
    every tier is written and none is read.
    """

    N = 3000
    ROUNDS = 3
    ALPHABET = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def instance(self, index: int):
        triples = partition_rounds_triples(
            self.N, self.ROUNDS, _derived_seed(self.seed, index)
        )
        return all_zero_triple_instance(self.N, triples, self.ALPHABET)

    def setup(self, scheduler) -> None:
        # Untimed warm-up: imports, lazy module state, numpy paths.
        instance = self.instance(0)
        result = solve(instance, scheduler=scheduler)
        _require(answer_problems(result, verify_solution(
            instance, result.assignment)), "warm-up solve")

    def before_solve(self) -> None:
        STORE.clear()

    @staticmethod
    def self_check(counts: Dict[str, int]) -> List[str]:
        if counts["artifacts.templates.hits"] or counts["artifacts.plans.hits"]:
            return ["cold-rank3 solve read the templates or plans tier"]
        return []


class WarmRank2:
    """Theorem 1.1 on the warm path: one shape, solved again and again.

    A random 4-regular graph from the seed, ``all_zero_edge_instance(·,
    3)`` (``p = 3^-4``, ``d = 4``, ``p·2^d ≈ 0.20``).  Set-up solves it
    once to fill the store; every timed solve gets a freshly built copy
    with identical content, so fingerprinting is paid (it is cached on
    the object) while templates and plans come from the store.
    """

    N = 6000
    DEGREE = 4
    ALPHABET = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graph = None

    def instance(self, index: int):
        return all_zero_edge_instance(self.graph, self.ALPHABET)

    def setup(self, scheduler) -> None:
        self.graph = random_regular_graph(self.N, self.DEGREE, self.seed)
        instance = self.instance(0)
        result = solve(instance, scheduler=scheduler)
        _require(answer_problems(result, verify_solution(
            instance, result.assignment)), "store-filling solve")

    def before_solve(self) -> None:
        pass

    @staticmethod
    def self_check(counts: Dict[str, int]) -> List[str]:
        problems = []
        if counts["artifacts.templates.misses"] or counts["artifacts.plans.misses"]:
            problems.append("warm-rank2 solve missed the templates or plans tier")
        if counts["engine.vector_queries"]:
            problems.append("warm-rank2 solve ran kernel queries")
        return problems


WORKLOADS = {"cold-rank3": ColdRank3, "warm-rank2": WarmRank2}


def _require(problems: List[str], what: str) -> None:
    if problems:
        raise SystemExit(f"{what}: {'; '.join(problems)}")


def measure(workload, scheduler, seconds: float) -> dict:
    """Untraced: solve + verify per instance, until ``seconds`` elapse."""
    clock = time.perf_counter
    samples: List[float] = []
    variables = 0
    failed = 0
    problems: List[str] = []
    start = clock()
    index = 1
    while not samples or clock() - start < seconds:
        instance = workload.instance(index)
        index += 1
        workload.before_solve()
        gc.collect()
        before = counters()
        t0 = clock()
        result = solve(instance, scheduler=scheduler)
        verification = verify_solution(instance, result.assignment)
        samples.append(clock() - t0)
        variables += len(instance.variables)
        wrong = answer_problems(result, verification)
        failed += bool(wrong)
        problems += wrong + workload.self_check(delta(before, counters()))
        del instance, result, verification
    return {
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "answer_p50_ms": median(samples) * 1000.0,
            "vars_per_s": variables / sum(samples),
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def traced(workload, scheduler, seconds: float) -> dict:
    """Per instance: an untraced ``solve`` (the reference) and the same
    content solved layer by layer, in alternating order, then an execute
    re-run on a third copy."""
    clock = time.perf_counter
    ledger = LayerLedger()
    failed = 0
    problems: List[str] = []
    start = clock()
    index = 1
    while not ledger or clock() - start < seconds:
        reference, untraced_s, layered, counts = solve_pair(
            scheduler, workload.before_solve,
            plain={"instance": workload.instance(index)},
            traced={"instance": workload.instance(index)},
            traced_first=index % 2 == 0,
        )
        rerun_result, rerun_s = timed_rerun(scheduler, workload.instance(index))
        index += 1

        wrong = answer_problems(layered.result, layered.verification)
        if not same_result(reference, layered.result):
            wrong.append("layered solve differs from solve()")
        if not same_result(reference, rerun_result):
            wrong.append("execute re-run differs from solve()")
        failed += bool(wrong)
        problems += wrong + workload.self_check(counts)
        ledger.add(layered, counts, untraced_s, rerun_s)
        del reference, layered, rerun_result
    return {
        "attempted": len(ledger),
        "failed": failed,
        "problems": problems,
        "metrics": ledger.metrics(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    scheduler = SerialScheduler()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup(scheduler)
    gc.collect()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    run = traced if args.trace else measure
    print(json.dumps(run(workload, scheduler, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
