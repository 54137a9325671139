"""The serve-mix workload: one closed-loop client against ``repro serve``.

The server runs in its own process (``python -m repro serve --scheduler
process --workers max(1, nproc-1)``).  This process is the load
generator: it builds every request body from the seed before the server
starts, then sends them one at a time over one keep-alive connection,
each request only after the previous answer arrived.

Traffic comes in blocks of five requests in seeded order: four repeat an
instance of the hot set (primed during set-up, so they are ``solutions``
memo hits) and one carries a fresh instance (a cold solve on the process
and shared-memory plane).  Hit and miss latencies are never pooled.

Why a closed loop on one connection: on a 2-CPU machine an open-loop
generator, the server and its workers compete for the same CPUs, and the
figures would measure the OS scheduler.  A consequence: a hit never
queues behind a miss on the server's single executor thread, so a change
to executor queueing shows no gain here.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.artifacts import STORE
from repro.core.sequential import solve
from repro.generators.graphs import random_regular_graph
from repro.generators.instances import all_zero_edge_instance
from repro.lll.io import instance_from_dict, instance_to_dict
from repro.lll.verify import verify_solution
from repro.probability import PartialAssignment
from repro.runtime import SerialScheduler

from common import (
    BenchError,
    ROOT,
    child_env,
    mean,
    median,
    percentile,
    readline,
    TreeRssSampler,
)
from layers import LayerLedger, same_result, solve_pair, timed_rerun

N = 200
DEGREE = 4
ALPHABET = 3
HOT = 8
#: Each block of this many requests holds exactly one fresh instance.
BLOCK = 5
#: Fresh instances generated per measured second: enough for blocks of
#: 0.33 s; if a faster program uses them up, the measured phase ends early.
FRESH_PER_SECOND = 3
#: Served answers checked bit for bit against an in-process serial solve,
#: per class (hot, fresh); the traced run also times these layer by layer.
ORACLE_SAMPLE = 2
ORACLE_SAMPLE_TRACED = 4
SERVER_START_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 120.0


def _p50(values: List[float]) -> float:
    """Median, or 0 for a class whose every answer failed."""
    return median(values) if values else 0.0


def workers_for(nproc: int) -> int:
    return max(1, nproc - 1)


def _key(encoded) -> str:
    return json.dumps(encoded, sort_keys=True)


class Request:
    """One pre-serialized ``POST /v1/solve`` body and its instance."""

    def __init__(self, seed: int) -> None:
        self.instance = all_zero_edge_instance(
            random_regular_graph(N, DEGREE, seed), ALPHABET
        )
        self.spec = instance_to_dict(self.instance)
        self.body = json.dumps({"instance": self.spec}).encode("utf-8")
        # Encoded-name keys, in the order instance_to_dict wrote them.
        self.variable_key = {
            variable.name: _key(entry["name"])
            for variable, entry in zip(
                self.instance.variables, self.spec["variables"]
            )
        }
        self.event_key = {
            event.name: _key(entry["name"])
            for event, entry in zip(self.instance.events, self.spec["events"])
        }
        self.variable_of = {key: name for name, key in self.variable_key.items()}

    def oracle_view(self, result) -> dict:
        """A FixingResult in the served ``result`` layout, keyed for equality."""
        return {
            "steps": result.num_steps,
            "min_slack": result.min_slack,
            "max_certified_bound": result.max_certified_bound,
            "assignment": {
                self.variable_key[name]: value
                for name, value in result.assignment.items()
            },
            "certified_bounds": {
                self.event_key[name]: value
                for name, value in result.certified_bounds.items()
            },
        }

    @staticmethod
    def served_view(served: dict) -> dict:
        return {
            "steps": served["steps"],
            "min_slack": served["min_slack"],
            "max_certified_bound": served["max_certified_bound"],
            "assignment": {_key(n): v for n, v in served["assignment"]},
            "certified_bounds": {
                _key(n): v for n, v in served["certified_bounds"]
            },
        }

    def answer_problems(self, status: int, raw: bytes) -> List[str]:
        """Check one served answer: status, certificate, independent verify."""
        if status != 200:
            return [f"HTTP {status}: {raw[:200]!r}"]
        body = json.loads(raw)
        served = body.get("result", {})
        problems = []
        if not (body.get("ok") and served.get("verified")):
            problems.append("server reports the answer unverified")
        if not served.get("max_certified_bound", 1.0) < 1.0:
            problems.append(f"max_certified_bound {served.get('max_certified_bound')}")
        if not served.get("min_slack", -1.0) >= 0.0:
            problems.append(f"min_slack {served.get('min_slack')}")
        assignment = PartialAssignment({
            self.variable_of[_key(name)]: value
            for name, value in served.get("assignment", [])
        })
        if not verify_solution(self.instance, assignment).ok:
            problems.append("served assignment fails verify_solution")
        return problems


def build_inputs(seed: int, seconds: float):
    """The hot set, the fresh instances and the request order."""
    fresh_count = max(4, int(seconds * FRESH_PER_SECOND))
    base = seed * 1_000_003
    hot = [Request(base + index) for index in range(HOT)]
    fresh = [Request(base + HOT + index) for index in range(fresh_count)]
    if len({request.body for request in hot + fresh}) != HOT + fresh_count:
        raise BenchError("seeded instances collide; the mix would be wrong")
    rng = random.Random(seed)
    sequence = []
    for block in range(fresh_count):
        kinds = ["hit"] * (BLOCK - 1) + ["miss"]
        rng.shuffle(kinds)
        for kind in kinds:
            sequence.append(
                ("hit", rng.randrange(HOT)) if kind == "hit" else ("miss", block)
            )
    return hot, fresh, sequence


class Server:
    """A ``repro serve`` process and one keep-alive connection to it."""

    def __init__(self, workers: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--scheduler", "process", "--workers", str(workers),
             "--deadline", str(REQUEST_TIMEOUT_S)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        try:
            line = readline(self.proc, SERVER_START_TIMEOUT_S)
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise BenchError(f"unexpected server announcement {line!r}")
            self.conn = http.client.HTTPConnection(
                match.group(1), int(match.group(2)), timeout=REQUEST_TIMEOUT_S
            )
        except BaseException:
            self.close()
            raise

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def stats(self) -> dict:
        status, raw = self.request("GET", "/v1/stats")
        if status != 200:
            raise BenchError(f"GET /v1/stats returned {status}")
        return json.loads(raw)

    def close(self) -> None:
        self.terminate()
        self.wait()

    def terminate(self) -> None:
        """Ask the server to drain (SIGTERM); :meth:`wait` for it after."""
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self) -> None:
        """Wait for the drain; kill the process group if it does not end."""
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate(timeout=30)
        # Pool workers share the server's process group: wait them out,
        # then kill what is left.  Bounded, since an orphan that ended
        # but was not yet reaped still counts as a group member.
        for signum in (None, signal.SIGKILL):
            if signum is not None:
                os.killpg(self.proc.pid, signum)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.proc.pid, 0)
                except ProcessLookupError:
                    return
                time.sleep(0.05)


def start_primed(workers: int, hot: List[Request]) -> Server:
    """Launch the server and prime the hot set (cold solves)."""
    server = Server(workers)
    try:
        for request in hot:
            status, raw = server.request("POST", "/v1/solve", request.body)
            problems = request.answer_problems(status, raw)
            if problems:
                raise BenchError(f"priming answer wrong: {problems}")
    except BaseException:
        server.close()
        raise
    return server


def _tier(stats: dict, name: str) -> Dict[str, int]:
    return stats["cache"]["tiers"].get(name, {"hits": 0, "misses": 0})


def drive(server: Server, hot, fresh, sequence, seconds: float):
    """The timed closed loop, in whole blocks.

    Returns ``(records, wall_s, stats_before, stats_after, peak_rss_mb)``;
    a record is ``(kind, index, status, raw_body, latency_s)``.
    """
    clock = time.perf_counter
    before = server.stats()
    records = []
    # The load generator's own collections are not the server's latency.
    gc.collect()
    gc.disable()
    try:
        with TreeRssSampler(server.proc.pid) as rss:
            start = clock()
            for position, (kind, index) in enumerate(sequence):
                if (position % BLOCK == 0 and records
                        and clock() - start >= seconds):
                    break
                body = (hot if kind == "hit" else fresh)[index].body
                t0 = clock()
                status, raw = server.request("POST", "/v1/solve", body)
                records.append((kind, index, status, raw, clock() - t0))
            wall = clock() - start
    finally:
        gc.enable()
    return records, wall, before, server.stats(), rss.peak_mb


def check_oracle(pool, records, served, seed: int, trace: bool):
    """Served answers of a seeded sample against in-process serial solves.

    Returns ``(failed, problems, ledger)``; in the traced run each sampled
    instance is also solved layer by layer (cold) into the ledger.
    """
    sample_size = ORACLE_SAMPLE_TRACED if trace else ORACLE_SAMPLE
    rng = random.Random(seed + 1)
    scheduler = SerialScheduler()
    ledger = LayerLedger()
    failed, problems = 0, []
    for kind in ("hit", "miss"):
        sent = sorted({index for k, index, *_ in records if k == kind})
        for position, index in enumerate(
            rng.sample(sent, min(sample_size, len(sent)))
        ):
            request = pool[kind][index]

            def decode():
                return instance_from_dict(request.spec)

            wrong = []
            if trace:
                reference, untraced_s, layered, counts = solve_pair(
                    scheduler, STORE.clear, plain={"decode": decode},
                    traced={"decode": decode}, traced_first=position % 2 == 1,
                )
                rerun, rerun_s = timed_rerun(scheduler, decode())
                if not (same_result(reference, layered.result)
                        and same_result(reference, rerun)):
                    wrong.append("layered solve differs from solve()")
                ledger.add(layered, counts, untraced_s, rerun_s)
            else:
                STORE.clear()
                reference = solve(decode(), scheduler=scheduler)
            if (kind, index) in served and (
                Request.served_view(served[kind, index])
                != request.oracle_view(reference)
            ):
                wrong.append("served answer differs from in-process serial solve")
            failed += bool(wrong)
            problems += wrong
    return failed, problems, ledger


def run(seed: int, seconds: float, trace: bool, nproc: int,
        setup_repeats: int) -> dict:
    hot, fresh, sequence = build_inputs(seed, seconds)
    pool = {"hit": hot, "miss": fresh}
    workers = workers_for(nproc)
    setup_s: List[float] = []
    # Set-up-only servers stay up, idle, until the end, when all drain
    # at once: a drain takes about as long as a set-up.
    servers: List[Server] = []
    try:
        for _ in range(setup_repeats):
            gc.collect()
            t0 = time.perf_counter()
            servers.append(start_primed(workers, hot))
            setup_s.append(time.perf_counter() - t0)
        records, wall, before, after, rss_mb = drive(
            servers[-1], hot, fresh, sequence, seconds
        )
    finally:
        for server in servers:
            server.terminate()
        for server in servers:
            server.wait()

    failed = 0
    problems: List[str] = []
    served: Dict[tuple, dict] = {}
    latency = {"hit": [], "miss": []}
    handle = {"hit": [], "miss": []}
    front = {"hit": [], "miss": []}
    for kind, index, status, raw, elapsed in records:
        latency[kind].append(elapsed * 1000.0)
        wrong = pool[kind][index].answer_problems(status, raw)
        failed += bool(wrong)
        problems += wrong
        if status == 200:
            body = json.loads(raw)
            served.setdefault((kind, index), body["result"])
            handle[kind].append(body["elapsed_ms"])
            front[kind].append(elapsed * 1000.0 - body["elapsed_ms"])

    solutions = {
        stat: _tier(after, "solutions")[stat] - _tier(before, "solutions")[stat]
        for stat in ("hits", "misses")
    }
    for stat, kind in (("hits", "hit"), ("misses", "miss")):
        if solutions[stat] != len(latency[kind]):
            problems.append(
                f"solutions {stat} {solutions[stat]} != {kind} requests sent "
                f"{len(latency[kind])}"
            )

    oracle_failed, oracle_problems, ledger = check_oracle(
        pool, records, served, seed, trace
    )
    failed += oracle_failed
    problems += oracle_problems

    attempted = len(records)
    variables = attempted * len(hot[0].instance.variables)
    if not trace:
        metrics = {
            "setup_s": median(setup_s),
            "answer_p50_ms": median(latency["hit"]),
            "vars_per_s": variables / wall,
            "peak_rss_mb": rss_mb,
        }
    else:
        metrics = ledger.metrics()
        metrics.update({
            "serve.hit_p90_ms": percentile(latency["hit"], 90),
            "serve.miss_p50_ms": median(latency["miss"]),
            "serve.handle_ms_p50.hit": _p50(handle["hit"]),
            "serve.handle_ms_p50.miss": _p50(handle["miss"]),
            "serve.front_ms_p50.hit": _p50(front["hit"]),
            "serve.front_ms_p50.miss": _p50(front["miss"]),
            "serve.request_kb": mean(
                [len(pool[k][i].body) for k, i, *_ in records]
            ) / 1024.0,
            "artifacts.solutions.hits": solutions["hits"],
            "artifacts.solutions.misses": solutions["misses"],
            "serve.errors": after["errors"] - before["errors"],
            "serve.rejections": after["rejections"] - before["rejections"],
            "serve.deadline_exceeded": (
                after["deadline_exceeded"] - before["deadline_exceeded"]
            ),
        })
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "workers": workers,
    }
