"""[E6] Vector decide plane: whole-class batch vs per-op scalar decisions.

The decide hot path of every fixer is the same loop: for each variable
of a color class, query the affected events' conditional increases,
pick a value, update the phi ledger.  The vector decide plane
(``repro.core.vector``) lowers a whole class into stacked kernel
queries, one batched selection per structural group and a flat numpy
ledger — and promises a transcript *bit-identical* to the per-op
scalar loop it replaces.  This bench measures exactly that trade on
the E2 headline workload (rank-3 cyclic triples, n=240, alphabet 8):
plan execution through the serial scheduler under ``vector`` vs
``scalar`` decide mode.

Timing convention — warm, deliberately unlike E2's cold convention:
one instance and one plan are built up front, both decide paths run
once untimed (compiling kernels, building the class templates), and
every timed repetition then constructs a *fresh fixer inside the timed
region* and executes the full plan.  E2 measures first-solve cost
(cold per-event caches each repetition); E6 measures the steady-state
decide/commit arithmetic, which is what the batch lowering targets —
the template is per-instance state and amortises across fixers exactly
as it does across the repeated solves of a sweep.  Since the artifact
plane (``repro.artifacts``) landed, the untimed warm-up also populates
the process-global store — kernels, templates and the instance's
parameter tier entry — so both decide paths see the same warm store;
the cold/warm *store* trade is E7's subject
(``bench_artifact_cache.py``), not this bench's.

Acceptance bar: the vector path must be at least 10x faster than the
scalar oracle on the headline workload (4x in quick mode,
``DECIDE_BENCH_QUICK=1``, sized for noisy CI runners), with the two
transcripts exactly equal.  A second phase solves a rank-2 cycle at
n = 10^6 end-to-end (build + plan + execute + verify) on the vector
plane — the scale target the batched decide exists for; quick mode
shrinks it to n = 2*10^4.  That row is informational (no floor) but
must verify and fix every variable.
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
from repro.planes import using_planes
from repro.probability.engine import STATS
from repro.runtime import make_scheduler
from repro.runtime.plan import plan_for_instance

QUICK = os.environ.get("DECIDE_BENCH_QUICK") == "1"

#: Timing repetitions per decide mode; the fastest is kept.
REPEATS = 3 if QUICK else 7

#: Required vector-over-scalar speedup on the headline workload.
SPEEDUP_FLOOR = 4.0 if QUICK else 10.0

#: Headline workload size (the E2 headline rank-3 configuration).
HEADLINE_N = 60 if QUICK else 240

#: End-to-end rank-2 scale phase.
SCALE_N = 20_000 if QUICK else 1_000_000


def _transcript(fixer):
    return (
        fixer.assignment.as_dict(),
        fixer.steps,
        fixer.pstar.certified_bounds(),
    )


def _run_headline():
    """Best-of-``REPEATS`` plan execution per decide mode, one instance."""
    instance = all_zero_triple_instance(
        HEADLINE_N, cyclic_triples(HEADLINE_N), 8
    )
    plan = plan_for_instance(instance)
    _obs_harness.reset_engine([instance])
    # Untimed warmup of both paths: compiles the kernels, builds the
    # per-instance class templates, populates the per-event caches the
    # scalar loop reads — steady state for both contenders.
    for mode in ("vector", "scalar"):
        with using_planes(decide=mode):
            warm = Rank3Fixer(instance)
            make_scheduler("serial").execute(warm, plan, instance)
    rows = []
    transcripts = {}
    best_by_mode = {}
    for mode in ("vector", "scalar"):
        best = None
        fixer = None
        with using_planes(decide=mode):
            for _ in range(REPEATS):
                start = time.perf_counter()
                fixer = Rank3Fixer(instance)
                make_scheduler("serial").execute(fixer, plan, instance)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
        transcripts[mode] = _transcript(fixer)
        best_by_mode[mode] = best
        rows.append(
            {
                "phase": "headline rank-3" + (" (quick)" if QUICK else ""),
                "mode": mode,
                "best_seconds": round(best, 6),
                "us_per_op": round(best * 1e6 / plan.num_ops, 3),
                "ops": plan.num_ops,
                "ok": verify_solution(
                    instance, fixer.assignment
                ).ok,
            }
        )
    identical = transcripts["vector"] == transcripts["scalar"]
    speedup = best_by_mode["scalar"] / best_by_mode["vector"]
    for row in rows:
        row["identical"] = identical
        if row["mode"] == "vector":
            row["speedup_vs_scalar"] = round(speedup, 3)
            row["vector_passes"] = STATS.vector_passes
            row["vector_memo_hits"] = STATS.vector_memo_hits
            row["vector_fallbacks"] = STATS.vector_fallbacks
    return rows


def _run_scale():
    """End-to-end rank-2 solve at the scale target, vector mode."""
    with using_planes(decide="vector"):
        build_start = time.perf_counter()
        instance = all_zero_edge_instance(cycle_graph(SCALE_N), 3)
        plan = plan_for_instance(instance)
        fixer = Rank2Fixer(instance)
        execute_start = time.perf_counter()
        make_scheduler("serial").execute(fixer, plan, instance)
        execute_seconds = time.perf_counter() - execute_start
        total_seconds = time.perf_counter() - build_start
        ok = verify_solution(instance, fixer.assignment).ok
    return [
        {
            "phase": f"rank-2 cycle n={SCALE_N} end-to-end",
            "mode": "vector",
            "best_seconds": round(execute_seconds, 6),
            "total_seconds": round(total_seconds, 6),
            "ops": plan.num_ops,
            "us_per_op": round(execute_seconds * 1e6 / plan.num_ops, 3),
            "steps": len(fixer.steps),
            "ok": ok,
            "identical": True,
        }
    ]


def test_decide_vector(benchmark, emit):
    def run_all():
        return _run_headline() + _run_scale()

    rows, wall = _obs_harness.timed(
        lambda: benchmark.pedantic(run_all, rounds=1, iterations=1)
    )
    records = _obs_harness.rows_to_records(
        "E6", rows, parameter_keys=("phase", "mode")
    )
    emit(
        "E6",
        records,
        "Vector decide plane: whole-class batch vs scalar oracle",
        wall_seconds=wall,
    )

    for row in rows:
        assert row["ok"], f"invalid solution in phase {row['phase']!r}"
        assert row["identical"], (
            f"vector transcript diverged from scalar in {row['phase']!r}"
        )

    headline = [
        row for row in rows
        if row["mode"] == "vector" and "speedup_vs_scalar" in row
    ]
    assert headline, "headline vector row missing"
    for row in headline:
        assert row["vector_fallbacks"] == 0, (
            "vector plane fell back to the scalar loop on the headline "
            "workload"
        )
        assert row["speedup_vs_scalar"] >= SPEEDUP_FLOOR, (
            f"vector speedup {row['speedup_vs_scalar']}x below the "
            f"{SPEEDUP_FLOOR}x floor"
        )

    scale = [row for row in rows if "steps" in row]
    assert scale and scale[0]["steps"] == scale[0]["ops"], (
        "scale phase did not fix every variable"
    )
