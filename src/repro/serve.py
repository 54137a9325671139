"""LLL-as-a-service: a persistent async solve server on the warm planes.

The ROADMAP's service item, closed: a long-running asyncio HTTP server
(`repro serve`) that accepts solve/verify/plan requests as JSON bodies
and dispatches them onto one persistent scheduler — the serial oracle
by default, or ``--scheduler process`` for the
:class:`~repro.runtime.schedulers.ProcessScheduler` + shared-memory
plane, which no measurement has yet shown beating serial
(EXPERIMENTS.md E2/E8) — with the process-global
:class:`~repro.artifacts.store.STORE` as the request-level cache.  Two layers of reuse, both riding the PR 8
artifact plane:

* **shape-level** — same-shape requests skip kernel compilation,
  template lowering, coloring and plan construction (the E7 win);
* **content-level** — the ``solutions`` tier memoizes whole solve
  responses by canonical request content, which is sound because the
  fixers are deterministic: an identical instance always produces the
  bit-identical result.  ``REPRO_ARTIFACTS=off`` disables both layers
  (the serving oracle: every request recomputes from scratch).

Layering
--------
:class:`SolveService`
    The transport-free sync engine: builds instances from request
    payloads (``lll.io`` dicts or generator family specs), runs them on
    the persistent scheduler, and shapes deterministic JSON responses.
    All scheduler access is serialized through a single executor
    thread, so back-to-back requests exercise exactly the warm
    :meth:`~repro.runtime.shm.ShmSession.ensure` path.
:class:`SolveServer`
    The asyncio HTTP/1.1 front: admission control (bounded in-flight
    queue, typed 429 rejection), per-request deadlines (typed 504;
    worker hangs are independently bounded by the PR 5 per-chunk
    deadline machinery, so an expired request never poisons the pool),
    and graceful drain on SIGTERM/SIGINT (finish in-flight work, close
    the scheduler — unlinking its shm segment — and flush obs).

Endpoints
---------
``POST /v1/solve``
    ``{"instance": {...}}`` or ``{"family": "cycle", "n": 64, ...}``;
    optional ``deadline_s``, ``include_assignment``,
    ``include_bounds``.  The ``result`` object is deterministic —
    bit-identical to an in-process :func:`repro.core.solve` — while
    timing and cache telemetry ride in separate keys.
``POST /v1/verify``
    ``{"instance"/"family": ..., "assignment": [[name, value], ...]}``.
``POST /v1/plan``
    Instance spec; returns the FixPlan summary and per-class rows.
``POST /v1/cache/clear``
    Drops the artifact store (the HTTP face of ``repro cache clear``;
    the load generator uses it to re-measure cold latency).
``GET /v1/stats``
    Request counters, latency quantiles, artifact-store tiers,
    scheduler description.
``GET /healthz``
    ``{"status": "ok" | "draining"}``.

Every request emits ``serve/*`` obs metrics when a recorder is active
(``repro serve --obs-trace``): a ``request_ms`` streaming quantile
(p50/p95/p99 in ``repro stats``), per-endpoint counters, and
``inflight`` / ``cache_hit_rate`` gauges.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.artifacts.store import STORE
from repro.errors import (
    AdmissionError,
    CertificateError,
    CriterionViolationError,
    DeadlineExceededError,
    ReproError,
    ScopeColumnsError,
)
from repro.generators.instances import build_family_instance
from repro.lll.instance import LLLInstance
from repro.lll.io import _decode_name, _encode_name, instance_from_dict
from repro.lll.verify import verify_solution
from repro.obs.metrics import QuantileHistogram
from repro.obs.recorder import active as _obs_active
from repro.probability.assignment import PartialAssignment

#: HTTP status by error type; anything else maps to 500.
_ERROR_STATUS = {
    CertificateError: 500,
    ScopeColumnsError: 500,
    AdmissionError: 429,
    DeadlineExceededError: 504,
    CriterionViolationError: 422,
    ReproError: 400,
}

#: Default per-request deadline (seconds) when the request names none.
DEFAULT_DEADLINE_S = 60.0

#: Default bound on concurrently admitted (queued + running) requests.
DEFAULT_MAX_INFLIGHT = 8


@dataclass
class ServeConfig:
    """Configuration for one :class:`SolveServer`."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: ``serial`` by default: the committed E2/E8 rows put the process
    #: plane at 0.11x-0.27x of serial on these workload families.
    scheduler: str = "serial"
    workers: Optional[int] = None
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    deadline_s: float = DEFAULT_DEADLINE_S
    drain_timeout_s: float = 30.0


#: The integer parameters of a family spec, with their defaults.
_FAMILY_DEFAULTS = {"n": 16, "alphabet": 3, "degree": 4, "seed": 0}


def _family_params(payload: Dict[str, Any]) -> Dict[str, int]:
    """The spec's family parameters, each checked to be a JSON integer."""
    params = {}
    for key, default in _FAMILY_DEFAULTS.items():
        value = payload.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ReproError(
                f"family parameter {key!r} must be an integer, got {value!r}"
            )
        params[key] = value
    return params


def _deadline_s(payload: Dict[str, Any], default: float) -> float:
    """The request's ``deadline_s``: a finite number of seconds, >= 0.

    Zero is a budget already spent (a typed 504); negative, NaN,
    infinite and non-numeric values are malformed requests.
    """
    value = payload.get("deadline_s", default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # Bounded before float(): an int too large for a float raises.
        seconds = float(value) if abs(value) < 1e300 else math.inf
        if math.isfinite(seconds) and seconds >= 0:
            return seconds
    raise ReproError(
        f"'deadline_s' must be a finite, non-negative number of seconds, "
        f"got {value!r}"
    )


def instance_from_request(payload: Dict[str, Any]) -> LLLInstance:
    """Build the request's instance: an ``lll.io`` dict or a family spec."""
    if not isinstance(payload, dict):
        raise ReproError("request body must be a JSON object")
    if "instance" in payload:
        spec = payload["instance"]
        if not isinstance(spec, dict):
            raise ReproError("'instance' must be an lll.io instance dict")
        return instance_from_dict(spec)
    family = payload.get("family")
    if family is None:
        raise ReproError(
            "request needs an 'instance' dict or a 'family' spec "
            "(family/n/alphabet/degree/seed)"
        )
    return build_family_instance(str(family), **_family_params(payload))


def _solve_cache_key(payload: Dict[str, Any]) -> str:
    """Canonical content key for the ``solutions`` response tier.

    Exactly the fields that determine the instance — a raw ``lll.io``
    dict is its own content; a family spec is pinned by its full
    parameter set (generators are deterministic given the seed).
    """
    if "instance" in payload:
        spec: Dict[str, Any] = {"instance": payload["instance"]}
    else:
        spec = {
            "family": str(payload.get("family")),
            **_family_params(payload),
        }
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _require_certificate(
    verified: bool,
    max_certified_bound: float,
    min_slack: float,
    criterion_margin: float,
) -> None:
    """Raise :class:`CertificateError` naming each failed certificate check."""
    failed = []
    if not verified:
        failed.append("verified")
    if not max_certified_bound < 1.0:
        failed.append(f"max_certified_bound < 1 (got {max_certified_bound!r})")
    if not min_slack >= 0.0:
        failed.append(f"min_slack >= 0 (got {min_slack!r})")
    if not criterion_margin < 1.0:
        failed.append(f"criterion_margin < 1 (got {criterion_margin!r})")
    if failed:
        raise CertificateError(
            "solve produced an uncertified answer; failed: "
            + "; ".join(failed)
        )


def _encode_pairs(items) -> List[List[Any]]:
    """Deterministically ordered ``[[encoded_name, value], ...]`` pairs."""
    encoded = [[_encode_name(name), value] for name, value in items]
    encoded.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
    return encoded


class SolveService:
    """The transport-free solve engine behind the server.

    One persistent scheduler, one single-thread executor: every request
    runs on the same thread against the same scheduler, which is what
    keeps the shm session, the warm worker pool and the artifact store
    hot across requests (and what makes concurrent HTTP clients safe —
    the scheduler is never entered reentrantly).
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self._scheduler = self._build_scheduler()
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-solve"
        )
        self._lock = threading.Lock()
        self._latency = QuantileHistogram()
        self._requests: Dict[str, int] = {}
        self._errors = 0
        self._rejections = 0
        self._deadline_exceeded = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._closed = False

    def _build_scheduler(self):
        from repro.runtime.schedulers import make_scheduler

        name = self.config.scheduler
        kwargs: Dict[str, Any] = {}
        if name == "process" and self.config.workers:
            kwargs["max_workers"] = self.config.workers
        return make_scheduler(name, **kwargs)

    def describe(self) -> str:
        return self._scheduler.describe()

    # ------------------------------------------------------------------
    # Request execution (runs on the executor thread)
    # ------------------------------------------------------------------
    def handle(
        self,
        kind: str,
        payload: Dict[str, Any],
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Execute one request; returns the JSON-ready response body.

        ``deadline`` is a ``time.monotonic()`` timestamp.  A request
        that spent its whole budget queued behind other work fails
        here, typed, before any scheduler state is touched.
        """
        start = time.perf_counter()
        if deadline is not None and time.monotonic() > deadline:
            self._record("deadline", start)
            raise DeadlineExceededError(
                f"request spent its whole {kind} deadline queued; "
                f"the server is at capacity — retry with backoff"
            )
        try:
            before = STORE.totals()
            if kind == "solve":
                body = self._solve(payload)
            elif kind == "verify":
                body = self._verify(payload)
            elif kind == "plan":
                body = self._plan(payload)
            else:
                raise ReproError(f"unknown request kind {kind!r}")
            after = STORE.totals()
        except BaseException:
            self._record("error", start)
            raise
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        total = hits + misses
        body["cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else None,
        }
        body["elapsed_ms"] = (time.perf_counter() - start) * 1000.0
        self._record(kind, start, hits=hits, misses=misses)
        return body

    def _solve(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.core.sequential import solve

        # Request-level memoization on the ``solutions`` tier: the
        # fixers are deterministic, so identical request *content*
        # (exact instance dict, or exact family parameters) always
        # yields the bit-identical response — the differential suite
        # asserts exactly that.  Keyed on content, never on shape:
        # same-shape instances with different distributions share
        # kernels/plans/templates below, but never a solution.  Under
        # ``REPRO_ARTIFACTS=off`` the tier is a no-op and every request
        # recomputes (the serving oracle).
        key = _solve_cache_key(payload)
        full = STORE.get("solutions", key)
        if full is None:
            instance = instance_from_request(payload)
            result = solve(instance, scheduler=self._scheduler)
            verified = verify_solution(instance, result.assignment).ok
            bound, slack = result.max_certified_bound, result.min_slack
            margin = instance.criterion_margin
            _require_certificate(verified, bound, slack, margin)
            full = {
                "ok": True,
                "result": {
                    "steps": result.num_steps,
                    "min_slack": slack,
                    "max_certified_bound": bound,
                    "criterion_margin": margin,
                    "verified": True,
                    "assignment": _encode_pairs(result.assignment.items()),
                    "certified_bounds": _encode_pairs(
                        result.certified_bounds.items()
                    ),
                },
            }
            STORE.put("solutions", key, full)
        body: Dict[str, Any] = {"ok": full["ok"], "result": dict(full["result"])}
        if not payload.get("include_assignment", True):
            body["result"].pop("assignment", None)
        if not payload.get("include_bounds", True):
            body["result"].pop("certified_bounds", None)
        return body

    def _verify(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        instance = instance_from_request(payload)
        pairs = payload.get("assignment")
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            raise ReproError(
                "'assignment' must be a [[name, value], ...] list"
            )
        assignment = PartialAssignment(
            {_decode_name(name): value for name, value in pairs}
        )
        report = verify_solution(instance, assignment)
        return {
            "ok": bool(report.ok),
            "result": {
                "complete": bool(report.complete),
                "occurring": [_encode_name(n) for n in report.occurring],
                "unfixed": [_encode_name(n) for n in report.unfixed],
                "invalid": [_encode_name(n) for n in report.invalid],
            },
        }

    def _plan(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.runtime.plan import plan_for_instance

        instance = instance_from_request(payload)
        plan = plan_for_instance(instance)
        return {
            "ok": True,
            "result": {
                "kind": plan.kind,
                "palette": plan.palette,
                "coloring_rounds": plan.coloring_rounds,
                "num_classes": plan.num_classes,
                "num_cells": plan.num_cells,
                "num_ops": plan.num_ops,
                "classes": [
                    {
                        "color": color_class.color,
                        "cells": len(color_class.cells),
                    }
                    for color_class in plan.classes
                ],
            },
        }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record(self, kind: str, start: float, hits: int = 0,
                misses: int = 0) -> None:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        with self._lock:
            self._requests[kind] = self._requests.get(kind, 0) + 1
            if kind == "error":
                self._errors += 1
            elif kind == "deadline":
                self._deadline_exceeded += 1
            else:
                self._latency.observe(elapsed_ms)
                self._cache_hits += hits
                self._cache_misses += misses
        recorder = _obs_active()
        if recorder is not None:
            recorder.count("serve", f"requests_{kind}")
            if kind not in ("error", "deadline"):
                recorder.observe_quantile("serve", "request_ms", elapsed_ms)
                recorder.gauge(
                    "serve", "cache_hit_rate", self.cache_hit_rate() or 0.0
                )
            recorder.maybe_snapshot()

    def note_rejection(self) -> None:
        """Count an admission rejection (called from the async side)."""
        with self._lock:
            self._rejections += 1
        recorder = _obs_active()
        if recorder is not None:
            recorder.count("serve", "rejected_admission")

    def cache_hit_rate(self) -> Optional[float]:
        total = self._cache_hits + self._cache_misses
        return (self._cache_hits / total) if total else None

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            latency = {
                f"p{q:g}_ms": self._latency.quantile(q)
                for q in (50.0, 95.0, 99.0)
            } if self._latency.count else {}
            body = {
                "ok": True,
                "scheduler": self.describe(),
                "requests": dict(self._requests),
                "rejections": self._rejections,
                "deadline_exceeded": self._deadline_exceeded,
                "errors": self._errors,
                "latency": latency,
                "cache": {
                    "hit_rate": self.cache_hit_rate(),
                    "totals": STORE.totals(),
                    "tiers": STORE.stats(),
                },
            }
        return body

    def clear_cache(self) -> Dict[str, Any]:
        STORE.clear()
        with self._lock:
            self._cache_hits = 0
            self._cache_misses = 0
        return {"ok": True, "cleared": True}

    def close(self) -> None:
        """Shut the executor down and release the scheduler's planes.

        Closing the ProcessScheduler unlinks its shm segment and
        reclaims the warm pool, so a drained server leaves no
        ``/dev/shm`` entries behind.
        """
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown(wait=True)
        close = getattr(self._scheduler, "close", None)
        if close is not None:
            close()


class SolveServer:
    """Asyncio HTTP/1.1 front for a :class:`SolveService`."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.service = SolveService(self.config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._connections: set = set()
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves the actual port (port 0)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish in-flight, unlink.

        The SIGTERM path.  New requests are rejected with the typed
        admission error while in-flight ones run to completion (bounded
        by ``drain_timeout_s``); then the scheduler closes — unlinking
        its shared-memory segment — and the obs recorder, if any, gets
        a final snapshot before the caller's ``recording()`` flushes.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        budget = self.config.drain_timeout_s
        step = 0.05
        while self._inflight > 0 and budget > 0:
            await asyncio.sleep(step)
            budget -= step
        # In-flight work is done; kick idle keep-alive connections so
        # their handler tasks exit instead of waiting on a readline.
        for writer in list(self._connections):
            writer.close()
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.close
        )
        recorder = _obs_active()
        if recorder is not None:
            recorder.snapshot(reason="drain")
        self._drained.set()

    async def run_until_drained(self) -> None:
        """Serve until :meth:`drain` completes (signal-driven)."""
        await self._drained.wait()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, path, _version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length") or 0)
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._route(method, path, body)
                data = json.dumps(payload).encode("utf-8")
                writer.write(
                    (
                        f"HTTP/1.1 {status} {_reason(status)}\r\n"
                        f"Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        f"Connection: keep-alive\r\n\r\n"
                    ).encode("latin-1") + data
                )
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            TimeoutError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "draining" if self._draining else "ok",
                "inflight": self._inflight,
                "scheduler": self.service.describe(),
            }
        if path == "/v1/stats" and method == "GET":
            return 200, self.service.stats()
        if method != "POST":
            return 405, _error_body(ReproError(f"{method} not allowed"))
        if path == "/v1/cache/clear":
            return 200, self.service.clear_cache()
        kind = {
            "/v1/solve": "solve",
            "/v1/verify": "verify",
            "/v1/plan": "plan",
        }.get(path)
        if kind is None:
            return 404, _error_body(ReproError(f"unknown path {path!r}"))
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, _error_body(
                ReproError(f"request body is not valid JSON: {error}")
            )
        if not isinstance(payload, dict):
            return 400, _error_body(
                ReproError("request body must be a JSON object")
            )
        try:
            return 200, await self._dispatch(kind, payload)
        except Exception as error:  # typed below; 500 for the rest
            return _status_for(error), _error_body(error)

    async def _dispatch(
        self, kind: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Admission control + deadline around one executor-bound job."""
        if self._draining:
            self.service.note_rejection()
            raise AdmissionError(
                "server is draining and no longer accepts work"
            )
        if self._inflight >= self.config.max_inflight:
            self.service.note_rejection()
            raise AdmissionError(
                f"server is at its in-flight limit "
                f"({self.config.max_inflight}); retry with backoff"
            )
        deadline_s = _deadline_s(payload, self.config.deadline_s)
        deadline = time.monotonic() + deadline_s
        loop = asyncio.get_running_loop()
        self._inflight += 1
        recorder = _obs_active()
        if recorder is not None:
            recorder.gauge("serve", "inflight", self._inflight)
        try:
            future = loop.run_in_executor(
                self.service.executor,
                self.service.handle,
                kind,
                payload,
                deadline,
            )
            try:
                return await asyncio.wait_for(future, timeout=deadline_s)
            except asyncio.TimeoutError:
                raise DeadlineExceededError(
                    f"{kind} request exceeded its {deadline_s:g}s deadline"
                ) from None
        finally:
            self._inflight -= 1


def _status_for(error: BaseException) -> int:
    for error_type, status in _ERROR_STATUS.items():
        if isinstance(error, error_type):
            return status
    return 500


def _error_body(error: BaseException) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


def _reason(status: int) -> str:
    return {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        422: "Unprocessable Entity",
        429: "Too Many Requests",
        500: "Internal Server Error",
        504: "Gateway Timeout",
    }.get(status, "Unknown")


# ----------------------------------------------------------------------
# Client + entry point
# ----------------------------------------------------------------------

class ServeClient:
    """A tiny keep-alive JSON client (tests and the E9 load generator)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        import http.client

        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        body = json.dumps(payload).encode("utf-8") if payload is not None \
            else None
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))

    def solve(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        return self.request("POST", "/v1/solve", payload)

    def close(self) -> None:
        self._conn.close()


async def run_server(config: ServeConfig, ready=None) -> None:
    """The `repro serve` body: start, announce, drain on SIGTERM."""
    server = SolveServer(config)
    await server.start()
    server.install_signal_handlers()
    print(
        f"repro serve: listening on http://{config.host}:{server.port} "
        f"({server.service.describe()}, max_inflight="
        f"{config.max_inflight}, deadline={config.deadline_s:g}s)",
        flush=True,
    )
    if ready is not None:
        ready(server)
    await server.run_until_drained()
    stats = server.service.stats()
    served = sum(stats["requests"].values())
    print(f"repro serve: drained after {served} requests", flush=True)
