"""Outside-in layer spans: the solve path called layer by layer.

:class:`TracedSolve` makes the calls ``repro.core.sequential.solve(...,
scheduler=...)`` makes, in the same order, with a clock read on each
side of every call, so each layer's public function gets one span.  The
gaps between spans (the clock reads themselves) are ``unattributed_s``;
spans plus gaps equal the traced wall time by construction.

Counts are exact deltas of the program's public counters
(``STORE.stats()`` and ``repro.probability.engine_stats()``) around the
traced solve.  :class:`LayerLedger` turns many traced solves into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Optional

from repro.artifacts import STORE, instance_fingerprint
from repro.core import Rank2Fixer, Rank3Fixer
from repro.core.sequential import solve
from repro.lll.verify import verify_solution
from repro.probability import engine_stats
from repro.runtime import plan_for_instance

from common import mean, median

#: Span names in call order.  ``lll.io.decode_s`` stays zero where the
#: workload hands the program an instance object instead of a dict.
SPANS = (
    "lll.io.decode_s",
    "artifacts.fingerprint_s",
    "core.fixer_init_s",
    "runtime.plan_s",
    "runtime.execute_s",
    "core.result_s",
    "lll.verify_s",
)

#: Artifact tiers on the solve path, as reported by ``STORE.stats()``.
TIERS = ("kernels", "stacks", "templates", "plans", "indexings", "parameters")

#: Engine counters reported per solve.
ENGINE_COUNTERS = (
    "kernel_compiles",
    "vector_queries",
    "vector_memo_hits",
    "vector_fallbacks",
)


def new_fixer(instance):
    """The fixer ``solve`` picks for the instance's rank."""
    fixer_class = Rank2Fixer if instance.rank <= 2 else Rank3Fixer
    return fixer_class(instance)


def counters() -> Dict[str, int]:
    """Flat snapshot of the tier and engine counters."""
    tiers = STORE.stats()
    snapshot = {
        f"artifacts.{tier}.{stat}": tiers.get(tier, {}).get(stat, 0)
        for tier in TIERS
        for stat in ("hits", "misses")
    }
    stats = engine_stats()
    for name in ENGINE_COUNTERS:
        snapshot[f"engine.{name}"] = stats[name]
    return snapshot


def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in before}


def answer_problems(result, verification) -> List[str]:
    """The paper's certificate, checked on one answer."""
    problems = []
    if not verification.ok:
        problems.append("verify_solution failed")
    if not result.max_certified_bound < 1.0:
        problems.append(f"max_certified_bound {result.max_certified_bound}")
    if not result.min_slack >= 0.0:
        problems.append(f"min_slack {result.min_slack}")
    return problems


def same_result(left, right) -> bool:
    """Bit-identity of two :class:`FixingResult`\\ s."""
    return (
        dict(left.assignment.items()) == dict(right.assignment.items())
        and left.steps == right.steps
        and left.certified_bounds == right.certified_bounds
    )


class TracedSolve:
    """One solve + verify called layer by layer, with its spans."""

    def __init__(self, scheduler, instance=None,
                 decode: Optional[Callable[[], object]] = None) -> None:
        clock = time.perf_counter
        spans = dict.fromkeys(SPANS, 0.0)
        start = clock()
        if decode is not None:
            t0 = clock()
            instance = decode()
            spans["lll.io.decode_s"] = clock() - t0
        t0 = clock()
        instance_fingerprint(instance)
        t1 = clock()
        fixer = new_fixer(instance)
        t2 = clock()
        plan = plan_for_instance(instance)
        t3 = clock()
        scheduler.execute(fixer, plan, instance)
        t4 = clock()
        result = fixer.run(order=())
        t5 = clock()
        verification = verify_solution(instance, result.assignment)
        t6 = clock()
        spans["artifacts.fingerprint_s"] = t1 - t0
        spans["core.fixer_init_s"] = t2 - t1
        spans["runtime.plan_s"] = t3 - t2
        spans["runtime.execute_s"] = t4 - t3
        spans["core.result_s"] = t5 - t4
        spans["lll.verify_s"] = t6 - t5
        self.wall = t6 - start
        spans["unattributed_s"] = self.wall - sum(spans[name] for name in SPANS)
        self.spans = spans
        self.plan = plan
        self.result = result
        self.verification = verification


def solve_pair(scheduler, reset: Callable[[], None], plain: dict,
               traced: dict, traced_first: bool):
    """An untraced ``solve`` + verify and a :class:`TracedSolve` of the same
    content, each after ``reset()`` and ``gc.collect()``.

    ``plain`` and ``traced`` hold the input of each: ``{"instance": ...}``
    or ``{"decode": callable}``.  Callers alternate ``traced_first`` so
    that neither side always runs on the heap the other left behind.
    Returns ``(reference, untraced_s, layered, counts)``.
    """

    def run_plain():
        reset()
        gc.collect()
        start = time.perf_counter()
        instance = plain["decode"]() if "decode" in plain else plain["instance"]
        result = solve(instance, scheduler=scheduler)
        verify_solution(instance, result.assignment)
        return result, time.perf_counter() - start

    def run_traced():
        reset()
        gc.collect()
        before = counters()
        layered = TracedSolve(scheduler, **traced)
        return layered, delta(before, counters())

    if traced_first:
        layered, counts = run_traced()
        reference, untraced_s = run_plain()
    else:
        reference, untraced_s = run_plain()
        layered, counts = run_traced()
    return reference, untraced_s, layered, counts


def timed_rerun(scheduler, instance):
    """``Scheduler.execute`` alone, on an instance whose shape is warm.

    Returns ``(result, execute_seconds)``.
    """
    fixer = new_fixer(instance)
    plan = plan_for_instance(instance)
    start = time.perf_counter()
    scheduler.execute(fixer, plan, instance)
    elapsed = time.perf_counter() - start
    return fixer.run(order=()), elapsed


class LayerLedger:
    """Accumulates traced solves into per-solve per-layer metrics.

    Times and counts are means per traced solve, so the layer spans plus
    ``unattributed_s`` sum to ``traced.solve_s`` exactly.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, float]] = []
        self.walls: List[float] = []
        self.classes: List[int] = []
        self.ops: List[int] = []
        self.counts: List[Dict[str, int]] = []
        self.untraced_s: List[float] = []
        self.rerun_s: List[float] = []

    def __len__(self) -> int:
        return len(self.walls)

    def add(self, traced: TracedSolve, counts: Dict[str, int],
            untraced_s: float, rerun_s: float) -> None:
        self.spans.append(traced.spans)
        self.walls.append(traced.wall)
        self.classes.append(traced.plan.num_classes)
        self.ops.append(traced.plan.num_ops)
        self.counts.append(counts)
        self.untraced_s.append(untraced_s)
        self.rerun_s.append(rerun_s)

    def metrics(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for name in SPANS + ("unattributed_s",):
            metrics[name] = mean([spans[name] for spans in self.spans])
        metrics["traced.solve_s"] = mean(self.walls)
        metrics["runtime.execute_rerun_s"] = mean(self.rerun_s)
        metrics["trace_overhead_frac"] = (
            median(self.walls) / median(self.untraced_s) - 1.0
        )
        metrics["plan.classes"] = mean(self.classes)
        metrics["plan.ops"] = mean(self.ops)
        for key in self.counts[0]:
            metrics[key] = mean([counts[key] for counts in self.counts])
        metrics["engine.fallback_ratio"] = (
            sum(counts["engine.vector_fallbacks"] for counts in self.counts)
            / max(1, sum(self.classes))
        )
        return metrics
