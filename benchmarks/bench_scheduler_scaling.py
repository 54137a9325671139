"""[E2] Scheduler backends on one fix plan: serial vs process.

The execution plane (``repro.runtime``) promises that the process
backend is bit-identical to ``SerialScheduler``, the one oracle.  This
bench measures exactly the phase the backends differ on — executing an
already-built plan through a fresh fixer and a fresh scheduler — on the
headline rank-3 cyclic-triples workload and a rank-2 cycle for
coverage.  The coloring and plan construction are deliberately excluded
from the timed region: they are identical across backends, and
including them would only dilute the comparison.

Every row must verify and match the serial transcript exactly.  No
speedup floor applies: the process backend's cold execute includes
spawning its pool and broadcasting the solve, which only pays off for
much more expensive per-op decisions, and the bench exists to keep that
trade-off measured, not to pretend it is always a win.  Quick mode
(``SCHEDULER_BENCH_QUICK=1``, used by the CI perf jobs) shrinks the
workloads; ``SCHEDULER_BENCH_BACKENDS`` restricts the backend set.
"""

from __future__ import annotations

import os
import time

import _obs_harness
from repro.core import Rank2Fixer, Rank3Fixer
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
)
from repro.lll import verify_solution
from repro.runtime import make_scheduler
from repro.runtime.plan import plan_for_instance

QUICK = os.environ.get("SCHEDULER_BENCH_QUICK") == "1"

BACKENDS = tuple(
    name.strip()
    for name in os.environ.get(
        "SCHEDULER_BENCH_BACKENDS", "serial,process"
    ).split(",")
    if name.strip()
)

#: Timing repetitions per backend; the fastest is kept.  A process row
#: pays a cold pool spawn per repetition: over repeated quick runs on a
#: 2-vCPU box its rank-3 ratio to serial spread 0.12-0.28x at best-of-2
#: and mostly stayed within 0.13-0.16x at best-of-5.
REPEATS = 5

WORKLOADS = [
    (
        "rank-2 cycle" + (" (quick)" if QUICK else ""),
        lambda: all_zero_edge_instance(
            cycle_graph(48 if QUICK else 240), 3
        ),
        False,
    ),
    (
        "rank-3 cyclic triples" + (" (quick)" if QUICK else ""),
        lambda: all_zero_triple_instance(
            60 if QUICK else 240,
            cyclic_triples(60 if QUICK else 240),
            8,
        ),
        True,
    ),
]


def _fixer_for(instance):
    if instance.rank <= 2:
        return Rank2Fixer(instance)
    return Rank3Fixer(instance)


def _run_backend(backend, build_instance):
    """Best-of-``REPEATS`` wall time of executing a fresh plan.

    Every repetition gets a fresh instance (cold per-event caches) and a
    fresh fixer; the plan is built outside the timed region.
    """
    best_seconds = None
    result = None
    for _ in range(REPEATS):
        instance = build_instance()
        plan = plan_for_instance(instance)
        fixer = _fixer_for(instance)
        _obs_harness.reset_engine([instance])
        scheduler = make_scheduler(backend)
        try:
            start = time.perf_counter()
            scheduler.execute(fixer, plan, instance)
            elapsed = time.perf_counter() - start
        finally:
            close = getattr(scheduler, "close", None)
            if close is not None:
                close()
        result = fixer.run(order=())
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, result


def run_scaling():
    rows = []
    for workload, build_instance, is_headline in WORKLOADS:
        reference = None
        serial_seconds = None
        for backend in BACKENDS:
            seconds, result = _run_backend(backend, build_instance)
            ok = verify_solution(build_instance(), result.assignment).ok
            if backend == "serial":
                reference = result
                serial_seconds = seconds
            identical = reference is None or (
                result.assignment.as_dict()
                == reference.assignment.as_dict()
                and result.certified_bounds == reference.certified_bounds
            )
            rows.append(
                {
                    "workload": workload,
                    "headline": is_headline,
                    "backend": backend,
                    "best_seconds": round(seconds, 6),
                    "speedup_vs_serial": (
                        round(serial_seconds / seconds, 3)
                        if serial_seconds
                        else None
                    ),
                    "steps": result.num_steps,
                    "ok": ok,
                    "identical_to_serial": identical,
                }
            )
    return rows


def test_scheduler_scaling(benchmark, emit):
    rows, wall = _obs_harness.timed(lambda: benchmark.pedantic(
        run_scaling, rounds=1, iterations=1
    ))
    records = _obs_harness.rows_to_records(
        "E2", rows, parameter_keys=("workload", "backend")
    )
    emit(
        "E2",
        records,
        "Scheduler backends: serial vs process",
        wall_seconds=wall,
    )

    for row in rows:
        assert row["ok"], f"invalid solution under {row['backend']}"
        assert row["identical_to_serial"], (
            f"{row['backend']} diverged from serial on {row['workload']}"
        )
