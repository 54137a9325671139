"""[E8] The process backend's shared-memory plane vs serial.

This bench measures the steady state the zero-copy plane
(``repro.runtime.shm``) was designed for — a **warm** scheduler
re-executing a solve (pool up, segment broadcast, workers holding the
published stack and chunk sections) — against ``SerialScheduler``, and
attributes the IPC cost: ``shm_bytes`` (per-class pins/phi copies) +
``descriptor_bytes`` (the per-chunk wire format).

Bit-identity with serial is asserted on every row (assignments and
certified bounds), plus a fault-injected shm leg whose recovery must
certify and still match serial exactly.  Warm reuse is asserted on a
single-worker scheduler, the only configuration where the pool
guarantees that every chunk reaches a process that already synced the
published blob: there, every chunk of a second execute must be a
``worker_warm_hits`` hit (served without re-reading the blob).

The shm-vs-serial floor on the headline rank-3 workload (>= 2x, quick
>= 1.5x) needs real parallel hardware, so it is enforced only on boxes
with >= 4 CPUs.  On smaller boxes the headline shm row records
``"floor": "unmeasured"``; every row records ``cpu_count``.  Quick mode
(``PROCESS_SHM_BENCH_QUICK=1``, the CI perf-gate leg) shrinks the
workloads and keeps the same conditional structure.
"""

from __future__ import annotations

import os
import time

import _obs_harness
from repro.core import Rank2Fixer, Rank3Fixer, certify_recovery
from repro.faults import FaultPlan
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
)
from repro.lll import verify_solution
from repro.obs.recorder import recording
from repro.runtime import ProcessScheduler, SerialScheduler
from repro.runtime.plan import plan_for_instance

QUICK = os.environ.get("PROCESS_SHM_BENCH_QUICK") == "1"

#: Timing repetitions per backend over the warm scheduler; best kept.
REPEATS = 2 if QUICK else 3

CPUS = os.cpu_count() or 1

#: The headline shm-vs-serial floor needs real parallel hardware.
PARALLEL_FLOORS = CPUS >= 4

#: Shm-vs-serial floor on the headline rank-3 workload, or
#: ``"unmeasured"`` where the box cannot show a parallel win.
SERIAL_FLOOR = (1.5 if QUICK else 2.0) if PARALLEL_FLOORS else "unmeasured"

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


def _make_scheduler(backend):
    if backend == "serial":
        return SerialScheduler()
    return ProcessScheduler()


def _run_warm(backend, build_instance):
    """Best-of-``REPEATS`` warm wall time of one backend.

    One instance + plan per backend; an untimed warm-up execute pays
    the one-time costs (chunk lowering, segment broadcast, pool spawn,
    blob unpickling, engine caches), then each timed repetition executes the
    same plan through a fresh fixer — the steady state of a solver
    service re-solving against a warm scheduler.
    """
    instance = build_instance()
    plan = plan_for_instance(instance)
    _obs_harness.reset_engine([instance])
    scheduler = _make_scheduler(backend)
    try:
        scheduler.execute(_fixer_for(instance), plan, instance)
        best_seconds = None
        result = None
        for _ in range(REPEATS):
            fixer = _fixer_for(instance)
            start = time.perf_counter()
            scheduler.execute(fixer, plan, instance)
            elapsed = time.perf_counter() - start
            result = fixer.run(order=())
            if best_seconds is None or elapsed < best_seconds:
                best_seconds = elapsed
        ipc_stats = dict(getattr(scheduler, "ipc_stats", {}) or {})
    finally:
        close = getattr(scheduler, "close", None)
        if close is not None:
            close()
    ok = verify_solution(instance, result.assignment).ok
    return best_seconds, result, ok, ipc_stats


def _warm_hits_single_worker(build_instance):
    """``(worker_warm_hits, chunks)`` of a single-worker re-execute.

    With one worker every chunk of the second execute reaches the
    process that already holds the published blob, so the two numbers
    must be equal.
    """
    instance = build_instance()
    plan = plan_for_instance(instance)
    scheduler = ProcessScheduler(max_workers=1)
    try:
        scheduler.execute(_fixer_for(instance), plan, instance)
        scheduler.execute(_fixer_for(instance), plan, instance)
        stats = dict(scheduler.ipc_stats)
    finally:
        scheduler.close()
    return int(stats["worker_warm_hits"]), int(stats["chunks"])


def _run_fault_leg(build_instance):
    """The fault-injected shm leg: crash chunk 0, certify the recovery."""
    instance = build_instance()
    plan = plan_for_instance(instance)
    _obs_harness.reset_engine([instance])
    scheduler = ProcessScheduler(
        fault_plan=FaultPlan(explicit_chunks=((0, "crash"),)),
        backoff_base=0.0,
        deadline=30.0,
    )
    try:
        with recording() as recorder:
            fixer = _fixer_for(instance)
            scheduler.execute(fixer, plan, instance)
            result = fixer.run(order=())
            events = list(recorder.memory.events)
    finally:
        scheduler.close()
    ok = verify_solution(instance, result.assignment).ok
    return result, ok, certify_recovery(events)


def run_shm_bench():
    rows = []
    for workload, build_instance, is_headline in WORKLOADS:
        reference = None
        seconds_by_backend = {}
        for backend in ("serial", "shm"):
            seconds, result, ok, ipc_stats = _run_warm(
                backend, build_instance
            )
            seconds_by_backend[backend] = seconds
            if backend == "serial":
                reference = result
            identical = (
                result.assignment.as_dict()
                == reference.assignment.as_dict()
                and result.certified_bounds == reference.certified_bounds
            )
            row = {
                "workload": workload,
                "headline": is_headline,
                "backend": backend,
                "best_seconds": round(seconds, 6),
                "speedup_vs_serial": round(
                    seconds_by_backend["serial"] / seconds, 3
                ),
                "steps": result.num_steps,
                "ok": ok,
                "identical_to_serial": identical,
                "floor": (
                    SERIAL_FLOOR
                    if is_headline and backend == "shm"
                    else None
                ),
                # Floats on purpose: these scale with the box (worker
                # count = cpu count), so the perf gate must treat them
                # as informational, not exact-match counts.
                "cpu_count": float(CPUS),
            }
            if backend == "shm":
                warm_hits, warm_chunks = _warm_hits_single_worker(
                    build_instance
                )
                row.update(
                    shm_bytes=float(ipc_stats.get("shm_bytes", 0)),
                    descriptor_bytes=float(
                        ipc_stats.get("descriptor_bytes", 0)
                    ),
                    broadcasts=float(ipc_stats.get("broadcasts", 0)),
                    # Single-worker probe: deterministic per workload.
                    worker_warm_hits=warm_hits,
                    warm_chunks=warm_chunks,
                )
            rows.append(row)
        if is_headline:
            result, ok, problems = _run_fault_leg(build_instance)
            rows.append(
                {
                    "workload": workload,
                    "headline": is_headline,
                    "backend": "shm-faulted",
                    "steps": result.num_steps,
                    "ok": ok,
                    "identical_to_serial": (
                        result.assignment.as_dict()
                        == reference.assignment.as_dict()
                        and result.certified_bounds
                        == reference.certified_bounds
                    ),
                    "recovered": not problems,
                    "floor": None,
                    "cpu_count": float(CPUS),
                }
            )
    return rows


def test_process_shm(benchmark, emit):
    rows, wall = _obs_harness.timed(lambda: benchmark.pedantic(
        run_shm_bench, rounds=1, iterations=1
    ))
    records = _obs_harness.rows_to_records(
        "E8", rows, parameter_keys=("workload", "backend")
    )
    emit(
        "E8",
        records,
        "Process backend: warm shm plane vs serial",
        wall_seconds=wall,
    )

    for row in rows:
        assert row["ok"], (
            f"invalid solution under {row['backend']} on {row['workload']}"
        )
        assert row["identical_to_serial"], (
            f"{row['backend']} diverged from serial on {row['workload']}"
        )
        if row["backend"] == "shm-faulted":
            assert row["recovered"], (
                f"fault recovery failed certification on {row['workload']}"
            )
        if row["backend"] == "shm":
            assert row["warm_chunks"] > 0, (
                f"single-worker shm run dispatched no chunks on "
                f"{row['workload']}"
            )
            assert row["worker_warm_hits"] == row["warm_chunks"], (
                f"single-worker shm re-execute served "
                f"{row['worker_warm_hits']} of {row['warm_chunks']} "
                f"chunks warm on {row['workload']}"
            )

    headline = [
        row for row in rows
        if row["headline"] and row["backend"] == "shm"
    ]
    assert headline, "headline rank-3 shm row missing"
    for row in headline:
        if PARALLEL_FLOORS:
            assert row["speedup_vs_serial"] >= SERIAL_FLOOR, (
                f"shm {row['speedup_vs_serial']}x vs serial below the "
                f"{SERIAL_FLOOR}x floor on {row['workload']} "
                f"({CPUS} cpus)"
            )
        else:
            assert row["floor"] == "unmeasured"
