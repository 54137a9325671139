"""The persistent solve service (:mod:`repro.serve`).

Four promises under test, matching the serving contract
(docs/serving.md):

* **Differential bit-identity** — a served solve equals the in-process
  serial-scheduler transcript exactly (assignment, certified bounds,
  steps, slack), and a warm (memoized) response is byte-identical to
  the cold response it was cached from.  ``REPRO_ARTIFACTS=off``
  recomputes every request (the serving oracle) and still matches.
* **Typed overload behaviour** — admission rejections are 429s naming
  :class:`~repro.errors.AdmissionError`; expired deadlines are 504s
  naming :class:`~repro.errors.DeadlineExceededError`; neither poisons
  the scheduler pool for subsequent requests.
* **Drain** — SIGTERM finishes in-flight work, exits 0, and leaves no
  orphaned ``/dev/shm`` segments behind.
* **Telemetry** — request counters, latency quantiles and cache
  hit-rate surface through ``GET /v1/stats``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import glob
import json
import math
import os
import signal
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.artifacts.store import STORE
from repro.planes import using_planes
from repro.core.rank2 import Rank2Fixer
from repro.core.rank3 import Rank3Fixer
from repro.core.sequential import solve
from repro.errors import CriterionViolationError
from repro.generators import INSTANCE_FAMILIES, build_family_instance
from repro.lll.io import _encode_name, instance_to_dict
from repro.probability.assignment import PartialAssignment
from repro.runtime.schedulers import make_scheduler
from repro.serve import ServeClient, ServeConfig, SolveServer

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Harness: one warm server per module, background event loop
# ----------------------------------------------------------------------

class ServerThread:
    """A :class:`SolveServer` on its own event loop thread."""

    def __init__(self, **config_kwargs) -> None:
        config_kwargs.setdefault("port", 0)
        self.config = ServeConfig(**config_kwargs)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.server: SolveServer = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self.server = SolveServer(self.config)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()

    def client(self, timeout: float = 120.0) -> ServeClient:
        return ServeClient(self.config.host, self.server.port, timeout)

    def drain(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        )
        future.result(timeout=60)

    def stop(self) -> None:
        if not self.server._drained.is_set():
            self.drain()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


@pytest.fixture(scope="module")
def served():
    # Pinned to the process plane (not the serial default) so the
    # suite, and its ambient-fault CI leg, keep covering worker
    # recovery and shm teardown behind the server.
    thread = ServerThread(scheduler="process", workers=2)
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def serial_served():
    thread = ServerThread(scheduler="serial")
    yield thread
    thread.stop()


#: Any JSON value, NaN and infinities included (Python's json module
#: reads and writes them).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Small family parameters: a large ``n`` is a valid, slow request, so
#: integers reach them only from this range.
_SMALL_INT = st.integers(min_value=-3, max_value=12)
_NOT_INT = _JSON.filter(lambda value: not isinstance(value, int))

#: Bodies that get past the first key checks, with any field malformed.
_NEAR_VALID_BODIES = st.fixed_dictionaries(
    {"family": st.sampled_from(["cycle", "regular", "torus", "triples"])},
    optional={
        "n": _SMALL_INT | _NOT_INT,
        "alphabet": st.integers(min_value=-1, max_value=4) | _NOT_INT,
        "degree": _SMALL_INT | _NOT_INT,
        "seed": _SMALL_INT | _NOT_INT,
        "deadline_s": st.floats() | _JSON,
        "assignment": _JSON,
        "include_assignment": _JSON,
    },
) | st.fixed_dictionaries(
    {
        "instance": st.fixed_dictionaries(
            {
                "format": st.just("repro-lll-instance"),
                "version": st.just(1),
                "variables": _JSON,
                "events": _JSON,
            }
        ),
        "assignment": _JSON,
    }
)


def _reference_solve(family: str, n: int, alphabet: int):
    """The differential oracle: in-process solve on the serial plan."""
    instance = build_family_instance(family, n, alphabet=alphabet)
    scheduler = make_scheduler("serial")
    result = solve(instance, scheduler=scheduler)
    assignment = [
        [_encode_name(name), value]
        for name, value in result.assignment.items()
    ]
    assignment.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
    bounds = [
        [_encode_name(name), value]
        for name, value in result.certified_bounds.items()
    ]
    bounds.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
    return instance, result, assignment, bounds


# ----------------------------------------------------------------------
# Differential suite
# ----------------------------------------------------------------------

class TestServeDifferential:
    def test_served_solve_bit_identical_to_inprocess(self, served):
        instance, result, assignment, bounds = _reference_solve(
            "cycle", 48, 3
        )
        client = served.client()
        status, body = client.solve(
            {"family": "cycle", "n": 48, "alphabet": 3}
        )
        assert status == 200 and body["ok"]
        assert body["result"]["assignment"] == assignment
        assert body["result"]["certified_bounds"] == bounds
        assert body["result"]["steps"] == result.num_steps
        assert body["result"]["min_slack"] == result.min_slack
        assert (
            body["result"]["max_certified_bound"]
            == result.max_certified_bound
        )
        client.close()

    def test_instance_dict_requests_match_family_requests(self, served):
        instance = build_family_instance("triples", 24, alphabet=8)
        client = served.client()
        status, by_dict = client.solve(
            {"instance": instance_to_dict(instance)}
        )
        status2, by_family = client.solve(
            {"family": "triples", "n": 24, "alphabet": 8}
        )
        assert status == status2 == 200
        assert by_dict["result"] == by_family["result"]
        client.close()

    def test_warm_response_identical_to_cold_and_hit_rate(self, served):
        client = served.client()
        payload = {"family": "regular", "n": 36, "alphabet": 3, "seed": 5}
        client.request("POST", "/v1/cache/clear")
        _, cold = client.solve(payload)
        _, warm = client.solve(payload)
        assert cold["result"] == warm["result"]
        assert cold["ok"] and warm["ok"]
        # The warm request is pure reuse: every tier touch is a hit.
        assert warm["cache"]["hit_rate"] == 1.0
        assert warm["cache"]["misses"] == 0
        client.close()

    def test_artifacts_off_oracle_recomputes_and_matches(self, served):
        client = served.client()
        payload = {"family": "cycle", "n": 30, "alphabet": 3}
        _, cached = client.solve(payload)
        with using_planes(artifacts="off"):
            # The server thread shares this process-wide switch: with
            # the plane off the solutions tier is inert, so the request
            # recomputes from scratch — and must match bit-identically.
            _, recomputed = client.solve(payload)
            assert recomputed["cache"]["hits"] == 0
        assert recomputed["result"] == cached["result"]
        client.close()

    def test_verify_roundtrip_and_tamper_detection(self, served):
        client = served.client()
        payload = {"family": "cycle", "n": 18, "alphabet": 3}
        _, solved = client.solve(payload)
        status, verified = client.request(
            "POST",
            "/v1/verify",
            {**payload, "assignment": solved["result"]["assignment"]},
        )
        assert status == 200 and verified["ok"]
        assert verified["result"]["complete"]
        assert verified["result"]["occurring"] == []
        # All-zero is exactly the assignment every bad event occurs on.
        tampered = [
            [name, 0] for name, _ in solved["result"]["assignment"]
        ]
        status, broken = client.request(
            "POST", "/v1/verify", {**payload, "assignment": tampered}
        )
        assert status == 200 and not broken["ok"]
        assert len(broken["result"]["occurring"]) == 18
        client.close()

    def test_verify_rejects_values_outside_the_value_list(self, served):
        """No event occurs under an out-of-support value, and still the
        assignment is not a solution: the report names the variables."""
        client = served.client()
        payload = {"family": "cycle", "n": 12, "alphabet": 3}
        _, solved = client.solve(payload)
        names = [name for name, _ in solved["result"]["assignment"]]
        status, report = client.request(
            "POST",
            "/v1/verify",
            {**payload, "assignment": [[name, 99] for name in names]},
        )
        assert status == 200 and not report["ok"]
        assert report["result"]["complete"]
        assert report["result"]["occurring"] == []
        invalid = report["result"]["invalid"]
        assert sorted(map(json.dumps, invalid)) == sorted(map(json.dumps, names))
        status, valid = client.request(
            "POST",
            "/v1/verify",
            {**payload, "assignment": solved["result"]["assignment"]},
        )
        assert status == 200 and valid["ok"]
        assert valid["result"]["invalid"] == []
        client.close()

    def test_plan_endpoint_matches_local_plan(self, served):
        from repro.runtime.plan import plan_for_instance

        instance = build_family_instance("cycle", 20, alphabet=3)
        plan = plan_for_instance(instance)
        client = served.client()
        status, body = client.request(
            "POST", "/v1/plan", {"family": "cycle", "n": 20, "alphabet": 3}
        )
        assert status == 200 and body["ok"]
        assert body["result"]["num_classes"] == plan.num_classes
        assert body["result"]["num_cells"] == plan.num_cells
        assert body["result"]["num_ops"] == plan.num_ops
        assert body["result"]["palette"] == plan.palette
        client.close()

    def test_include_flags_trim_the_response(self, served):
        client = served.client()
        _, body = client.solve(
            {
                "family": "cycle",
                "n": 12,
                "alphabet": 3,
                "include_assignment": False,
                "include_bounds": False,
            }
        )
        assert "assignment" not in body["result"]
        assert "certified_bounds" not in body["result"]
        assert body["result"]["verified"] is True
        assert body["result"]["steps"] >= 0
        client.close()


# ----------------------------------------------------------------------
# Typed overload behaviour
# ----------------------------------------------------------------------

class TestAdmissionAndDeadlines:
    def test_deadline_exceeded_is_typed_and_pool_survives(self, served):
        client = served.client()
        status, body = client.solve(
            {"family": "cycle", "n": 24, "alphabet": 3, "deadline_s": 0.0}
        )
        assert status == 504
        assert body["error"]["type"] == "DeadlineExceededError"
        # The pool is not poisoned: the very next request succeeds.
        status, body = client.solve(
            {"family": "cycle", "n": 24, "alphabet": 3}
        )
        assert status == 200 and body["ok"]
        client.close()

    def test_admission_limit_rejects_with_429(self):
        thread = ServerThread(scheduler="serial", max_inflight=0)
        try:
            client = thread.client()
            status, body = client.solve({"family": "cycle", "n": 8})
            assert status == 429
            assert body["error"]["type"] == "AdmissionError"
            status, stats = client.request("GET", "/v1/stats")
            assert stats["rejections"] == 1
            client.close()
        finally:
            thread.stop()

    def test_malformed_requests_are_400s(self, served):
        client = served.client()
        status, body = client.request(
            "POST", "/v1/solve", {"family": "klein-bottle", "n": 8}
        )
        assert status == 400 and not body["ok"]
        status, body = client.request("POST", "/v1/solve", {})
        assert status == 400
        assert "instance" in body["error"]["message"]
        status, body = client.request("POST", "/v1/nonsense", {})
        assert status == 404
        for body in (
            [],
            "str",
            {"family": "cycle", "n": "x"},
            {"family": "cycle", "n": 8, "deadline_s": "soon"},
            {"family": "cycle", "n": 8, "deadline_s": None},
            {"family": "cycle", "n": 8, "deadline_s": -1},
            {"family": "cycle", "n": 8, "deadline_s": float("nan")},
            {"family": "cycle", "n": 8, "deadline_s": 10 ** 400},
        ):
            status, reply = client.request("POST", "/v1/solve", body)
            assert status == 400, (body, reply)
            assert reply["error"]["type"] == "ReproError"
        client.close()

    @settings(max_examples=100, deadline=None)
    @given(
        path=st.sampled_from(["/v1/solve", "/v1/verify", "/v1/plan"]),
        body=st.one_of(_JSON, _NEAR_VALID_BODIES),
    )
    @example(path="/v1/verify", body={"family": "cycle", "assignment": []})
    # A variable-free instance whose one event is certain (rank 0, p = 1):
    # a typed criterion violation, not a crash in ``LLLInstance.rank``.
    @example(path="/v1/solve", body={"instance": {
        "format": "repro-lll-instance", "version": 1, "variables": [],
        "events": [{"name": "A", "scope": [], "bad_outcomes": [[]]}],
    }})
    # Real variable names, each paired with a list: an unhashable value
    # is invalid (a 200 with "ok": false), not an untyped TypeError.
    @example(path="/v1/verify", body={
        "family": "cycle", "n": 4,
        "assignment": [
            [{"__tuple__": ["edge", u, v]}, [1]]
            for u, v in ((0, 1), (0, 3), (1, 2), (2, 3))
        ],
    })
    def test_arbitrary_json_never_500s(self, serial_served, path, body):
        client = serial_served.client()
        try:
            status, reply = client.request("POST", path, body)
        finally:
            client.close()
        # Typed failures only: 400/422 for the request, 504 for a spent
        # budget; 500 is reserved for bugs and uncertified answers.
        assert status != 500, (path, body, reply)
        assert (status == 200) == ("error" not in reply)
        # A verify verdict is an answer: an assignment that does not
        # verify is a 200 with "ok": false (see the tamper test).
        if status != 200 or path != "/v1/verify":
            assert (status == 200) == (reply["ok"] is not False)

    def test_stats_surface_latency_and_hit_rate(self, served):
        client = served.client()
        client.solve({"family": "cycle", "n": 10, "alphabet": 3})
        client.solve({"family": "cycle", "n": 10, "alphabet": 3})
        status, stats = client.request("GET", "/v1/stats")
        assert status == 200
        assert stats["requests"]["solve"] >= 2
        assert "p50_ms" in stats["latency"]
        assert "p99_ms" in stats["latency"]
        assert stats["cache"]["hit_rate"] is not None
        assert "solutions" in stats["cache"]["tiers"]
        client.close()


# ----------------------------------------------------------------------
# Certificate: an answer the paper's certificate does not back is a 500
# ----------------------------------------------------------------------

def _solve_with_one_flipped_value(real_solve):
    """``solve`` whose answer has one value flipped so an event occurs."""

    def flipped(instance, **kwargs):
        result = real_solve(instance, **kwargs)
        values = dict(result.assignment.items())
        for event in instance.events:
            nonzero = [
                name for name in event.scope_names if values[name] != 0
            ]
            if len(nonzero) == 1:
                # Every scope variable is now 0: the event occurs.
                values[nonzero[0]] = 0
                break
        else:
            raise AssertionError("no event is one flip from occurring")
        return dataclasses.replace(
            result, assignment=PartialAssignment(values)
        )

    return flipped


def at_threshold_instance(family: str, n: int, seed: int):
    """``build_family_instance(family, n, seed=seed)``'s structure with
    its event probability put at ``p = 2^-d`` through the generators'
    ``probabilities=`` argument.

    The edge families are ``delta``-regular with ``d = delta``, so a
    bad value of probability 1/2 puts them exactly at ``2^-d``.  A
    cyclic-triples node lies in 3 triples with ``d = 4``, and no float
    ``q`` has ``q^3 = 2^-4``: the family takes the smallest ``q`` whose
    ``p`` is not below ``2^-d``, one ulp of ``q`` above an instance the
    criterion accepts.
    """
    from repro.generators import (
        all_zero_edge_instance,
        all_zero_triple_instance,
        cycle_graph,
        cyclic_triples,
        random_regular_graph,
        torus_graph,
    )

    if family == "triples":
        def build(q):
            return all_zero_triple_instance(
                n, cyclic_triples(n), 2, probabilities=(q, 1.0 - q)
            )

        d = build(0.5).max_dependency_degree
        q = 2.0 ** (-d / 3)
        while build(q).max_event_probability < 2.0 ** -d:
            q = math.nextafter(q, 1.0)
        below = build(math.nextafter(q, 0.0))
        assert below.max_event_probability < 2.0 ** -d
        return build(q)
    if family == "cycle":
        graph = cycle_graph(n)
    elif family == "regular":
        graph = random_regular_graph(n, 4, seed=seed)
    else:
        side = max(int(round(n ** 0.5)), 3)
        graph = torus_graph(side, side)
    instance = all_zero_edge_instance(
        graph, 3, probabilities=(0.5, 0.25, 0.25)
    )
    d = instance.max_dependency_degree
    assert instance.max_event_probability == 2.0 ** -d
    return instance


class TestCertificate:
    @settings(max_examples=16, deadline=None)
    @given(
        family=st.sampled_from(INSTANCE_FAMILIES),
        n=st.integers(min_value=3, max_value=7).map(lambda k: 2 * k),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_families_at_the_threshold_are_rejected(
        self, serial_served, family, n, seed
    ):
        instance = at_threshold_instance(family, n, seed)
        reference = build_family_instance(family, n, degree=4, seed=seed)
        assert instance.variable_names == reference.variable_names
        assert [e.name for e in instance.events] == [
            e.name for e in reference.events
        ]
        fixers = [Rank3Fixer, solve]
        if instance.rank <= 2:
            fixers.append(Rank2Fixer)
        for fixer in fixers:
            with pytest.raises(CriterionViolationError):
                fixer(instance)
        client = serial_served.client()
        try:
            status, reply = client.solve(
                {"instance": instance_to_dict(instance)}
            )
        finally:
            client.close()
        assert status == 422, reply
        assert reply["error"]["type"] == "CriterionViolationError"

    def test_certificate_carries_the_criterion_margin(self):
        payload = {"family": "regular", "n": 24, "alphabet": 3, "seed": 2}
        instance = build_family_instance("regular", 24, alphabet=3, seed=2)
        margin = (
            instance.max_event_probability
            * 2.0 ** instance.max_dependency_degree
        )
        assert margin < 1.0
        thread = ServerThread(scheduler="serial")
        try:
            client = thread.client()
            with using_planes(artifacts="on"):
                STORE.clear()
                _, fresh = client.solve(payload)
                parameter_hits = STORE.tier("parameters").hits
                _, memo_hit = client.solve(payload)
                assert STORE.tier("solutions").hits == 1
            client.close()
        finally:
            thread.stop()
        assert fresh["ok"] and memo_hit["ok"]
        assert fresh["result"]["criterion_margin"] == margin
        assert memo_hit["result"]["criterion_margin"] == margin
        # The fresh solve's precondition check filled the parameters
        # tier, and the certificate read the margin back from it.
        assert parameter_hits >= 2

    def test_margin_at_or_above_one_is_uncertified(self):
        from repro.errors import CertificateError
        from repro.serve import _require_certificate

        _require_certificate(True, 0.5, 0.0, math.nextafter(1.0, 0.0))
        for margin in (1.0, 1.5, math.nan):
            with pytest.raises(CertificateError, match="criterion_margin"):
                _require_certificate(True, 0.5, 0.0, margin)

    def test_disagreeing_scope_columns_are_a_500(self):
        from repro.errors import ScopeColumnsError
        from repro.serve import _status_for

        # A generator's columns that disagree with its own objects are a
        # fault of the program, not of the request.
        assert _status_for(ScopeColumnsError("x")) == 500

    def test_uncertified_answer_is_a_typed_500_and_not_memoised(
        self, monkeypatch
    ):
        import repro.core.sequential as sequential

        payload = {"family": "cycle", "n": 14, "alphabet": 3}
        thread = ServerThread(scheduler="serial")
        try:
            client = thread.client()
            with using_planes(artifacts="on"):
                STORE.clear()
                monkeypatch.setattr(
                    sequential,
                    "solve",
                    _solve_with_one_flipped_value(sequential.solve),
                )
                status, body = client.solve(payload)
                assert status == 500
                assert body["error"]["type"] == "CertificateError"
                assert "verified" in body["error"]["message"]
                assert len(STORE.tier("solutions")) == 0
                # The honest solve of the same request is computed
                # afresh (nothing was memoised) and served.
                monkeypatch.undo()
                status, body = client.solve(payload)
                assert status == 200 and body["ok"]
                assert STORE.tier("solutions").misses == 2
                assert len(STORE.tier("solutions")) == 1
            client.close()
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# Drain under SIGTERM (real process, real signals, real /dev/shm)
# ----------------------------------------------------------------------

class TestDrain:
    def test_sigterm_drains_and_leaves_no_shm_orphans(self):
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--scheduler", "process", "--workers", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            announce = process.stdout.readline()
            assert "listening on http://" in announce
            port = int(announce.split("http://", 1)[1]
                       .split()[0].rsplit(":", 1)[1])
            client = ServeClient("127.0.0.1", port, timeout=120)
            status, body = client.solve(
                {"family": "cycle", "n": 16, "alphabet": 3}
            )
            assert status == 200 and body["ok"]
            client.close()
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
        assert process.returncode == 0, output
        assert "drained after" in output
        orphans = glob.glob(f"/dev/shm/repro_shm_{process.pid}_*")
        assert orphans == []

    def test_draining_server_rejects_new_work(self):
        thread = ServerThread(scheduler="serial")
        try:
            client = thread.client()
            status, body = client.solve({"family": "cycle", "n": 8})
            assert status == 200 and body["ok"]
            client.close()
            thread.drain()
            # The listening socket is closed during drain: new
            # connections must fail outright.
            with pytest.raises(ConnectionError):
                fresh = thread.client(timeout=5)
                fresh.request("GET", "/healthz")
        finally:
            thread.stop()
