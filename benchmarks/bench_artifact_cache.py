"""[E7] Artifact cache: warm same-shape one-shot solves vs cold.

The service-shaped workload the artifact plane exists for: requests
arrive as *fresh* instance objects of a recurring shape, and each is
solved once.  Without the cache every request pays plan coloring,
kernel compilation and template lowering from scratch; with it, the
second same-shape request finds all of those in the process-global
store by structural fingerprint.

Workload: the E6 scale configuration — a rank-2 all-zero cycle at
n = 10^6 (quick mode, ``ARTIFACT_BENCH_QUICK=1``, shrinks it to
n = 2*10^4), solved with ``plan_for_instance`` + ``Rank2Fixer`` + the
serial scheduler.  Instance construction happens *outside* the timed
region (it is the request payload, not derived work); the timed
region is exactly the one-shot solve: plan + fixer + execute.

Phases:

* ``cold`` — artifacts on, store cleared before every repetition;
* ``warm`` — artifacts on, store carried over from a cold solve; every
  repetition solves a *fresh* instance of the same shape;
* ``oracle`` — ``REPRO_ARTIFACTS=off``, the legacy path.

Acceptance bar: warm must be at least 5x faster than cold (2.5x in
quick mode, sized for noisy CI runners), the warm solve's store hit
rate must be at least 90%, and all three transcripts (assignment,
steps, phi ledger) must be exactly equal.  Verification runs outside
the timed region.
"""

from __future__ import annotations

import os
import time

import _obs_harness
from repro.artifacts import STORE
from repro.core import Rank2Fixer
from repro.generators import all_zero_edge_instance, cycle_graph
from repro.lll import verify_solution
from repro.planes import using_planes
from repro.runtime import make_scheduler
from repro.runtime.plan import plan_for_instance

QUICK = os.environ.get("ARTIFACT_BENCH_QUICK") == "1"

#: Timing repetitions per phase; the fastest is kept.
REPEATS = 3 if QUICK else 2

#: Required warm-over-cold speedup of the one-shot solve.
SPEEDUP_FLOOR = 2.5 if QUICK else 5.0

#: Required store hit rate on the warm solve.
HIT_RATE_FLOOR = 0.9

#: The E6 scale configuration (rank-2 all-zero cycle, alphabet 3).
SCALE_N = 20_000 if QUICK else 1_000_000


def _one_shot(instance):
    """The timed region: plan + fixer + execute on a built instance."""
    start = time.perf_counter()
    plan = plan_for_instance(instance)
    plan_seconds = time.perf_counter() - start
    fixer = Rank2Fixer(instance)
    make_scheduler("serial").execute(fixer, plan, instance)
    return time.perf_counter() - start, plan_seconds, fixer


def _transcript(fixer):
    return (
        fixer.assignment.as_dict(),
        fixer.steps,
        fixer.certified_bounds(),
    )


def _measure(prepare):
    """Best-of-``REPEATS`` one-shot solves over fresh instances.

    ``prepare`` runs before each repetition, outside the timed region
    (store management and instance construction).
    """
    best = None
    best_plan = None
    fixer = None
    instance = None
    for _ in range(REPEATS):
        instance = prepare()
        elapsed, plan_seconds, fixer = _one_shot(instance)
        if best is None or elapsed < best:
            best = elapsed
            best_plan = plan_seconds
    return best, best_plan, fixer, instance


def _build():
    return all_zero_edge_instance(cycle_graph(SCALE_N), 3)


def _hit_rate(before, after):
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    total = hits + misses
    return hits / total if total else 0.0


def _run_phases():
    rows = []
    transcripts = {}

    with using_planes(artifacts="on"):
        def cold_prepare():
            instance = _build()
            _obs_harness.reset_engine([instance])  # clears the store too
            return instance

        cold_seconds, cold_plan, fixer, instance = _measure(cold_prepare)
        transcripts["cold"] = _transcript(fixer)
        cold_ok = verify_solution(instance, fixer.assignment).ok

        # Warm: the store stays populated from the last cold solve;
        # each repetition still solves a brand-new instance object.
        warm_before = STORE.totals()
        warm_seconds, warm_plan, fixer, instance = _measure(_build)
        warm_after = STORE.totals()
        transcripts["warm"] = _transcript(fixer)
        warm_ok = verify_solution(instance, fixer.assignment).ok
        hit_rate = _hit_rate(warm_before, warm_after)

    with using_planes(artifacts="off"):
        def oracle_prepare():
            instance = _build()
            _obs_harness.reset_engine([instance])
            return instance

        oracle_seconds, oracle_plan, fixer, instance = _measure(
            oracle_prepare
        )
        transcripts["oracle"] = _transcript(fixer)
        oracle_ok = verify_solution(instance, fixer.assignment).ok

    identical = (
        transcripts["cold"] == transcripts["warm"] == transcripts["oracle"]
    )
    speedup = cold_seconds / warm_seconds
    suffix = " (quick)" if QUICK else ""
    rows.append(
        {
            "phase": f"cold n={SCALE_N}{suffix}",
            "best_seconds": round(cold_seconds, 6),
            "plan_seconds": round(cold_plan, 6),
            "ok": cold_ok,
            "identical": identical,
        }
    )
    rows.append(
        {
            "phase": f"warm n={SCALE_N}{suffix}",
            "best_seconds": round(warm_seconds, 6),
            "plan_seconds": round(warm_plan, 6),
            "speedup_vs_cold": round(speedup, 3),
            "hit_rate": round(hit_rate, 4),
            "hit_rate_ok": hit_rate >= HIT_RATE_FLOOR,
            "ok": warm_ok,
            "identical": identical,
        }
    )
    rows.append(
        {
            "phase": f"oracle (artifacts off) n={SCALE_N}{suffix}",
            "best_seconds": round(oracle_seconds, 6),
            "plan_seconds": round(oracle_plan, 6),
            "ok": oracle_ok,
            "identical": identical,
        }
    )
    return rows


def test_artifact_cache(benchmark, emit):
    rows, wall = _obs_harness.timed(
        lambda: benchmark.pedantic(_run_phases, rounds=1, iterations=1)
    )
    records = _obs_harness.rows_to_records(
        "E7", rows, parameter_keys=("phase",)
    )
    emit(
        "E7",
        records,
        "Artifact cache: warm same-shape one-shot solves vs cold",
        wall_seconds=wall,
    )

    for row in rows:
        assert row["ok"], f"invalid solution in phase {row['phase']!r}"
        assert row["identical"], (
            "transcripts diverged between cold/warm/oracle phases"
        )

    warm = [row for row in rows if "speedup_vs_cold" in row]
    assert warm, "warm row missing"
    assert warm[0]["speedup_vs_cold"] >= SPEEDUP_FLOOR, (
        f"warm one-shot speedup {warm[0]['speedup_vs_cold']}x below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    assert warm[0]["hit_rate_ok"], (
        f"warm store hit rate {warm[0]['hit_rate']} below "
        f"{HIT_RATE_FLOOR}"
    )
