"""[E9] The solve service: cold vs warm request latency over one server.

The load generator behind ``docs/serving.md``: one in-process
:class:`~repro.serve.SolveServer` on a persistent process scheduler,
driven over real HTTP by the keep-alive :class:`~repro.serve.ServeClient`.
Two phases against the same server:

* **cold** — ``POST /v1/cache/clear`` before every sample, so each
  request pays instance build + kernel/template/plan construction +
  the full scheduled solve (the artifact plane is empty; the pool and
  shm segment stay warm — that part of the stack is E8's subject);
* **warm** — the steady state the service exists for: the ``solutions``
  tier answers from the memoized response, so a request is one cache
  probe plus JSON shaping.

Acceptance (the ISSUE 10 floors):

* warm hit rate >= 0.9 (``hit_rate_ok``),
* two counts on the warm row that ``repro bench compare`` checks
  exactly: ``solutions_hits`` (warm requests answered from the
  ``solutions`` tier: every one) and ``kernel_compiles`` (kernels
  compiled while serving them: none) — deterministic, unlike the
  latency ratio below,
* warm p50 at least 5x faster than cold p50 (``speedup_warm_p50``;
  quick mode keeps a reduced floor),
* served results bit-identical to an in-process serial-scheduler solve
  (``identical_to_inprocess``),
* zero leaked shm segments after drain (``no_leaked_segments``).

Quick mode (``SERVE_BENCH_QUICK=1``, the CI perf-gate leg) shrinks the
workload but keeps the sample counts and every boolean invariant.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import threading
import time

import _obs_harness
from repro.core.sequential import solve
from repro.probability.engine import STATS
from repro.generators import build_family_instance
from repro.lll.io import _encode_name
from repro.runtime import live_segment_names
from repro.runtime.schedulers import make_scheduler
from repro.serve import ServeClient, ServeConfig, SolveServer

QUICK = os.environ.get("SERVE_BENCH_QUICK") == "1"

#: The headline workload: the E8 rank-3 family at a serving-friendly
#: size (one request = one full scheduled solve, tens of ms, so the
#: phases measure request handling rather than minutes of fixing).
N = 60 if QUICK else 240
ALPHABET = 8
WORKLOAD = f"triples n={N} k={ALPHABET}" + (" (quick)" if QUICK else "")
PAYLOAD = {"family": "triples", "n": N, "alphabet": ALPHABET}

#: The speedup gate is a ratio of two medians of millisecond samples,
#: so both modes keep enough of each for the ratio to hold on unchanged
#: code (quick mode's former 3 cold and 10 warm samples did not).
COLD_SAMPLES = 15
WARM_SAMPLES = 50

#: warm p50 vs cold p50.  The solutions tier turns a warm request into
#: one cache probe, so the full floor is conservative by orders of
#: magnitude; quick keeps a reduced floor for CI-box jitter.
SPEEDUP_FLOOR = 3.0 if QUICK else 5.0

HIT_RATE_FLOOR = 0.9


class _ServerThread:
    """An in-process server on its own event loop thread."""

    def __init__(self) -> None:
        self.config = ServeConfig(
            port=0,
            scheduler="process",
            workers=2,
            deadline_s=600.0,
        )
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.server = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=60):
            raise RuntimeError("bench server failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self.server = SolveServer(self.config)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()

    def client(self) -> ServeClient:
        return ServeClient(self.config.host, self.server.port, timeout=600)

    def drain_and_stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        )
        future.result(timeout=120)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def _solutions_hits(client) -> int:
    """The server's ``solutions`` tier hits so far."""
    status, stats = client.request("GET", "/v1/stats")
    assert status == 200 and stats["ok"]
    return int(stats["cache"]["tiers"]["solutions"]["hits"])


def _reference_result():
    """The differential oracle: in-process solve on the serial plan."""
    instance = build_family_instance("triples", N, alphabet=ALPHABET)
    result = solve(instance, scheduler=make_scheduler("serial"))

    def pairs(items):
        encoded = [[_encode_name(name), value] for name, value in items]
        encoded.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return encoded

    return {
        "steps": result.num_steps,
        "min_slack": result.min_slack,
        "max_certified_bound": result.max_certified_bound,
        "criterion_margin": instance.criterion_margin,
        "verified": True,
        "assignment": pairs(result.assignment.items()),
        "certified_bounds": pairs(result.certified_bounds.items()),
    }


def _phase(client, samples, clear_before_each):
    """Drive one phase; returns (latencies_ms, responses, wall_seconds)."""
    latencies = []
    responses = []
    start = time.perf_counter()
    for _ in range(samples):
        if clear_before_each:
            status, _body = client.request("POST", "/v1/cache/clear")
            assert status == 200
        t0 = time.perf_counter()
        status, body = client.solve(PAYLOAD)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        assert status == 200 and body["ok"], body
        responses.append(body)
    return latencies, responses, time.perf_counter() - start


def run_serve_bench():
    reference = _reference_result()
    server = _ServerThread()
    rows = []
    try:
        client = server.client()
        # One untimed request pays the pool spawn + segment broadcast,
        # so "cold" below means artifact-cold against a warm scheduler.
        status, body = client.solve(PAYLOAD)
        assert status == 200 and body["ok"], body

        cold_ms, cold_bodies, cold_wall = _phase(
            client, COLD_SAMPLES, clear_before_each=True
        )
        # Prime the caches once, then measure pure warm traffic.
        client.solve(PAYLOAD)
        solutions_before = _solutions_hits(client)
        compiles_before = STATS.kernel_compiles
        warm_ms, warm_bodies, warm_wall = _phase(
            client, WARM_SAMPLES, clear_before_each=False
        )
        # The server runs in this process, so its engine counters are
        # this process's; warm requests never reach the workers.
        warm_compiles = STATS.kernel_compiles - compiles_before
        warm_solutions = _solutions_hits(client) - solutions_before

        hits = sum(body["cache"]["hits"] for body in warm_bodies)
        misses = sum(body["cache"]["misses"] for body in warm_bodies)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        identical = all(
            body["result"] == reference
            for body in cold_bodies + warm_bodies
        )

        status, stats = client.request("GET", "/v1/stats")
        assert status == 200 and stats["ok"]
        client.close()
    finally:
        server.drain_and_stop()

    leaked = tuple(live_segment_names()) + tuple(
        glob.glob(f"/dev/shm/repro_shm_{os.getpid()}_*")
    )

    cold_p50 = _percentile(cold_ms, 50)
    warm_p50 = _percentile(warm_ms, 50)
    rows.append({
        "workload": WORKLOAD,
        "phase": "cold",
        "samples": COLD_SAMPLES,
        "p50_ms": round(cold_p50, 3),
        "p99_ms": round(_percentile(cold_ms, 99), 3),
        "requests_per_second": round(COLD_SAMPLES / cold_wall, 3),
        "ok": True,
    })
    rows.append({
        "workload": WORKLOAD,
        "phase": "warm",
        "samples": WARM_SAMPLES,
        "p50_ms": round(warm_p50, 3),
        "p99_ms": round(_percentile(warm_ms, 99), 3),
        "requests_per_second": round(WARM_SAMPLES / warm_wall, 3),
        "solutions_hits": warm_solutions,
        "kernel_compiles": warm_compiles,
        "ok": True,
    })
    rows.append({
        "workload": WORKLOAD,
        "phase": "summary",
        "speedup_warm_p50": round(cold_p50 / warm_p50, 3),
        "hit_rate": round(hit_rate, 4),
        "hit_rate_ok": hit_rate >= HIT_RATE_FLOOR,
        "identical_to_inprocess": identical,
        "no_leaked_segments": not leaked,
        "deadline_exceeded": float(stats["deadline_exceeded"]),
        "rejections": float(stats["rejections"]),
        "errors": float(stats["errors"]),
        "ok": True,
    })
    return rows


def test_serve(benchmark, emit):
    rows, wall = _obs_harness.timed(lambda: benchmark.pedantic(
        run_serve_bench, rounds=1, iterations=1
    ))
    records = _obs_harness.rows_to_records(
        "E9", rows, parameter_keys=("workload", "phase")
    )
    emit(
        "E9",
        records,
        "Solve service: cold vs warm request latency",
        wall_seconds=wall,
    )

    summary = next(row for row in rows if row["phase"] == "summary")
    assert summary["hit_rate_ok"], (
        f"warm hit rate {summary['hit_rate']} below the "
        f"{HIT_RATE_FLOOR} floor"
    )
    assert summary["identical_to_inprocess"], (
        "a served response diverged from the in-process serial solve"
    )
    assert summary["no_leaked_segments"], (
        "the drained server left shm segments behind"
    )
    assert summary["errors"] == 0, "the server reported request errors"
    assert summary["speedup_warm_p50"] >= SPEEDUP_FLOOR, (
        f"warm p50 only {summary['speedup_warm_p50']}x faster than cold, "
        f"below the {SPEEDUP_FLOOR}x floor"
    )
