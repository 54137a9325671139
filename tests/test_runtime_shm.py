"""The zero-copy shared-memory IPC plane of the process backend.

Three promises under test, matching the plane's contract
(:mod:`repro.runtime.shm`):

* **Differential bit-identity** — the process backend produces the
  exact ``SerialScheduler`` transcript (assignments, steps, certified
  bounds), across fixers and under injected worker faults.
* **Segment lifecycle** — every created segment is unlinked: after
  crash/hang recovery, after ``certify_recovery``, after ``close()``,
  and at scheduler garbage collection.  No orphaned ``/dev/shm``
  entries, ever.
* **Warm reuse** — a second execute over the same solve re-uses the
  published segment (no re-broadcast), a warm worker serves every chunk
  without re-reading the blob (``worker_warm_hits``), and a stream of
  same-shape fresh solves re-broadcasts into one segment and one pool.

Workers have one path — the parent's template sections through the
vector plane's wave executor — so whatever is not dispatched (scalar
decide mode, a chunk holding a kernel-less event) runs in the parent
and must still match the serial transcript.
"""

from __future__ import annotations

import gc
import glob
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.artifacts.store import STORE
from repro.core import certify_recovery, solve_distributed
from repro.errors import SchedulerProtocolError
from repro.faults import FaultPlan
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
    random_regular_graph,
)
from repro.obs.recorder import recording
from repro.runtime import (
    ProcessScheduler,
    SerialScheduler,
    live_segment_names,
)
from repro.runtime.shm import (
    ChunkDescriptor,
    SegmentLayout,
    ShmSession,
)

SLOW_SETTINGS = settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
)


def shm_entries():
    """The ``/dev/shm`` entries this process could have created.

    Segment names carry the creating process's pid, so a test run on
    the same machine never sees (or blames) another run's segments.
    """
    return sorted(glob.glob(f"/dev/shm/repro_shm_{os.getpid()}_*"))


def fast_scheduler(**kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("deadline", 15.0)
    return ProcessScheduler(**kwargs)


def instance_for(spec):
    family, n, alphabet, seed = spec
    if family == "cycle":
        return all_zero_edge_instance(cycle_graph(n), alphabet)
    if family == "regular":
        return all_zero_edge_instance(
            random_regular_graph(n, 3, seed=seed), alphabet
        )
    return all_zero_triple_instance(n, cyclic_triples(n), alphabet)


def assert_identical(reference, candidate):
    assert (
        candidate.fixing.assignment.as_dict()
        == reference.fixing.assignment.as_dict()
    )
    assert candidate.fixing.steps == reference.fixing.steps
    assert (
        candidate.fixing.certified_bounds
        == reference.fixing.certified_bounds
    )


def specs():
    cycles = st.tuples(
        st.integers(min_value=3, max_value=14),
        st.integers(min_value=3, max_value=5),
    ).map(lambda t: ("cycle", t[0], t[1], 0))
    regulars = st.tuples(
        st.integers(min_value=4, max_value=7).map(lambda k: 2 * k),
        st.integers(min_value=5, max_value=6),
        st.integers(min_value=0, max_value=3),
    ).map(lambda t: ("regular", t[0], t[1], t[2]))
    triples = st.tuples(
        st.integers(min_value=5, max_value=14),
        st.integers(min_value=5, max_value=6),
    ).map(lambda t: ("triples", t[0], t[1], 0))
    return st.one_of(cycles, regulars, triples)


# ----------------------------------------------------------------------
# Run-header echo
# ----------------------------------------------------------------------
class TestDescribe:
    def test_serial_describe(self):
        from repro.planes import Planes, using_planes

        with using_planes(**vars(Planes())):
            assert SerialScheduler().describe() == "serial"
            with using_planes(decide="scalar", artifacts="off"):
                assert (
                    SerialScheduler().describe()
                    == "serial decide=scalar artifacts=off"
                )

    def test_process_describe(self):
        scheduler = ProcessScheduler(max_workers=1)
        assert scheduler.describe().startswith("process workers=1")


# ----------------------------------------------------------------------
# Differential: shm == serial (Hypothesis)
# ----------------------------------------------------------------------
@SLOW_SETTINGS
@given(spec=specs())
def test_shm_matches_serial(spec):
    reference = solve_distributed(
        instance_for(spec), scheduler=SerialScheduler()
    )
    scheduler = ProcessScheduler(max_workers=2)
    try:
        candidate = solve_distributed(
            instance_for(spec), scheduler=scheduler
        )
    finally:
        scheduler.close()
    assert_identical(reference, candidate)


@SLOW_SETTINGS
@given(spec=specs(), seed=st.integers(min_value=0, max_value=7))
def test_shm_identical_under_faults_with_clean_segments(spec, seed):
    """The fault-injected leg: recovery is invisible and leak-free."""
    reference = solve_distributed(
        instance_for(spec), scheduler=SerialScheduler()
    )
    plan = FaultPlan(
        seed=seed,
        explicit_chunks=((0, "crash"),),
        slow_rate=0.3,
        slow_seconds=0.001,
    )
    scheduler = fast_scheduler(fault_plan=plan)
    try:
        candidate = solve_distributed(
            instance_for(spec), scheduler=scheduler
        )
    finally:
        scheduler.close()
    assert_identical(reference, candidate)
    assert live_segment_names() == ()
    assert shm_entries() == []


# ----------------------------------------------------------------------
# Fault legs (explicit, with certification)
# ----------------------------------------------------------------------
class TestShmFaults:
    @pytest.fixture
    def instance_spec(self):
        return ("cycle", 14, 3, 0)

    def test_crash_recovery_certifies(self, instance_spec):
        reference = solve_distributed(
            instance_for(instance_spec), scheduler=SerialScheduler()
        )
        plan = FaultPlan(explicit_chunks=((0, "crash"),))
        scheduler = fast_scheduler(fault_plan=plan)
        with recording() as recorder:
            try:
                candidate = solve_distributed(
                    instance_for(instance_spec), scheduler=scheduler
                )
            finally:
                scheduler.close()
            events = list(recorder.memory.events)
        assert_identical(reference, candidate)
        kinds = {
            e["event"] for e in events if e["component"] == "runtime"
        }
        assert "fault" in kinds and "retry" in kinds
        assert certify_recovery(events) == []
        assert shm_entries() == []

    def test_hang_recovery_certifies(self, instance_spec):
        reference = solve_distributed(
            instance_for(instance_spec), scheduler=SerialScheduler()
        )
        plan = FaultPlan(
            explicit_chunks=((1, "hang"),), hang_seconds=10.0
        )
        scheduler = fast_scheduler(fault_plan=plan, deadline=1.0)
        with recording() as recorder:
            try:
                candidate = solve_distributed(
                    instance_for(instance_spec), scheduler=scheduler
                )
            finally:
                scheduler.close()
            events = list(recorder.memory.events)
        assert_identical(reference, candidate)
        assert certify_recovery(events) == []
        assert shm_entries() == []

    def test_garbled_result_region_raises(self, instance_spec):
        """A short shared-region write is a protocol error, not a retry."""
        plan = FaultPlan(explicit_chunks=((0, "garble"),))
        scheduler = fast_scheduler(fault_plan=plan)
        try:
            with pytest.raises(SchedulerProtocolError):
                solve_distributed(
                    instance_for(instance_spec), scheduler=scheduler
                )
        finally:
            scheduler.close()
        assert shm_entries() == []


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
class TestSegmentLifecycle:
    def test_close_is_idempotent_and_unlinks(self):
        spec = ("cycle", 10, 3, 0)
        scheduler = ProcessScheduler(max_workers=2)
        solve_distributed(instance_for(spec), scheduler=scheduler)
        assert len(live_segment_names()) == 1
        scheduler.close()
        scheduler.close()
        assert live_segment_names() == ()
        assert shm_entries() == []

    def test_garbage_collection_reclaims_segment(self):
        spec = ("cycle", 10, 3, 0)
        scheduler = ProcessScheduler(max_workers=2)
        solve_distributed(instance_for(spec), scheduler=scheduler)
        assert len(live_segment_names()) == 1
        del scheduler
        gc.collect()
        assert live_segment_names() == ()
        assert shm_entries() == []


# ----------------------------------------------------------------------
# Warm reuse across executes
# ----------------------------------------------------------------------
class TestWarmReuse:
    def test_second_execute_reuses_segment_and_warms(self):
        """One worker holds the published blob, so every chunk is warm.

        Warm means the worker served the chunk without re-reading the
        segment blob.  With several workers the pool does not promise
        that every process has synced the current generation before it
        receives a chunk, so warm hits are only guaranteed with one
        worker.  Nothing may fall back to the parent on the way.
        """
        from repro.core.rank2 import Rank2Fixer
        from repro.runtime import plan_for_instance

        instance = all_zero_edge_instance(cycle_graph(16), 3)
        plan = plan_for_instance(instance)
        scheduler = ProcessScheduler(max_workers=1)
        with recording() as recorder:
            try:
                scheduler.execute(Rank2Fixer(instance), plan, instance)
                first = dict(scheduler.ipc_stats)
                scheduler.execute(Rank2Fixer(instance), plan, instance)
                second = dict(scheduler.ipc_stats)
            finally:
                scheduler.close()
            fallbacks = [
                event for event in recorder.memory.events
                if event["event"] == "fallback"
            ]
        assert fallbacks == []
        assert first["broadcasts"] == 1
        # Same (plan, instance): the segment is reused verbatim.
        assert second["broadcasts"] == 0
        assert second["generation"] == first["generation"]
        # The second pass serves every chunk from the synced blob.
        assert second["chunks"] > 0
        assert second["worker_warm_hits"] == second["chunks"]
        assert second["descriptor_bytes"] > 0

    def test_fresh_same_shape_solves_share_one_segment_and_pool(self):
        """Geometric headroom: fresh instances re-broadcast, never realloc."""
        from repro.core import solve

        scheduler = ProcessScheduler(max_workers=1)
        segments = set()
        pools = []
        try:
            for seed in range(20):
                instance = all_zero_edge_instance(
                    random_regular_graph(200, 4, seed=seed), 3
                )
                solve(instance, scheduler=scheduler)
                segments.update(live_segment_names())
                pools.append(scheduler._pool)
            stats = dict(scheduler.ipc_stats)
        finally:
            scheduler.close()
        assert len(segments) == 1
        assert all(pool is pools[0] for pool in pools)
        assert stats["generation"] == 20
        assert shm_entries() == []

    def test_new_solve_rebroadcasts_without_new_segment_when_it_fits(self):
        from repro.core.rank2 import Rank2Fixer
        from repro.runtime import plan_for_instance

        big = all_zero_edge_instance(cycle_graph(16), 3)
        small = all_zero_edge_instance(cycle_graph(12), 3)
        scheduler = ProcessScheduler(max_workers=2)
        try:
            scheduler.execute(
                Rank2Fixer(big), plan_for_instance(big), big
            )
            first_segment = live_segment_names()
            scheduler.execute(
                Rank2Fixer(small), plan_for_instance(small), small
            )
            second_segment = live_segment_names()
            stats = dict(scheduler.ipc_stats)
        finally:
            scheduler.close()
        assert stats["broadcasts"] == 1
        assert first_segment == second_segment
        assert shm_entries() == []


# ----------------------------------------------------------------------
# What is not dispatched runs in the parent
# ----------------------------------------------------------------------
class TestParentFallback:
    @staticmethod
    def _execute(instance, scheduler):
        from repro.core.rank2 import Rank2Fixer
        from repro.runtime import plan_for_instance

        fixer = Rank2Fixer(instance)
        try:
            scheduler.execute(fixer, plan_for_instance(instance), instance)
            stats = dict(getattr(scheduler, "ipc_stats", {}))
        finally:
            close = getattr(scheduler, "close", None)
            if close is not None:
                close()
        values = {
            variable.name: fixer.assignment.value_of(variable.name)
            for variable in instance.variables
        }
        return (values, fixer.steps, fixer.certified_bounds()), stats

    def test_kernel_less_class_is_not_dispatched_and_matches_serial(self):
        """A class holding a kernel-less event runs in the parent."""
        reference, _ = self._execute(
            all_zero_edge_instance(cycle_graph(13), 3), SerialScheduler()
        )
        _, plain = self._execute(
            all_zero_edge_instance(cycle_graph(13), 3),
            ProcessScheduler(max_workers=1),
        )
        instance = all_zero_edge_instance(cycle_graph(13), 3)
        # Pretend the first event's scope product blew the compile
        # limit: it has no kernel, so no section can include it.  The
        # store goes first: its plans and templates tiers would hand
        # back the content-equal instance's kernel-backed lowering.
        STORE.clear()
        instance.events[0]._kernel = None
        with recording() as recorder:
            candidate, stats = self._execute(
                instance, ProcessScheduler(max_workers=1)
            )
            events = list(recorder.memory.events)
        assert candidate == reference
        # One chunk per class with one worker: the two classes touching
        # the kernel-less event stay home, the third still dispatches.
        assert 0 < stats["chunks"] < plain["chunks"]
        reasons = [
            event["payload"]["reason"] for event in events
            if event["component"] == "vector"
            and event["event"] == "fallback"
        ]
        assert reasons and all("no compiled kernel" in r for r in reasons)
        assert shm_entries() == []

    def test_scalar_mode_dispatches_nothing_and_matches_serial(self):
        from repro.planes import using_planes

        with using_planes(decide="scalar"):
            reference, _ = self._execute(
                all_zero_edge_instance(cycle_graph(14), 3),
                SerialScheduler(),
            )
            candidate, stats = self._execute(
                all_zero_edge_instance(cycle_graph(14), 3),
                ProcessScheduler(max_workers=2),
            )
        assert candidate == reference
        assert stats["chunks"] == 0
        assert stats["broadcasts"] == 0
        assert live_segment_names() == ()


# ----------------------------------------------------------------------
# Unit coverage: layout, lowering, descriptors
# ----------------------------------------------------------------------
class TestShmUnits:
    def test_layout_offsets_are_aligned_and_ordered(self):
        layout = SegmentLayout(
            num_events=5, pin_width=3, ledger_size=7,
            max_ops=9, record_width=16, blob_capacity=123,
        )
        offsets = [
            layout.blob_offset, layout.pins_offset, layout.phi_offset,
            layout.pins_out_offset, layout.phi_out_offset,
            layout.results_offset, layout.total_bytes,
        ]
        assert offsets == sorted(offsets)
        assert all(offset % 8 == 0 for offset in offsets)

    def test_headroom_grows_geometrically_and_only_up(self):
        need = SegmentLayout(
            num_events=200, pin_width=4, ledger_size=801,
            max_ops=120, record_width=16, blob_capacity=190_000,
        )
        layout = SegmentLayout(0, 0, 0, 0, 0, 0).grown_for(need)
        assert (layout.num_events, layout.ledger_size, layout.max_ops) == (
            256, 1024, 128
        )
        assert layout.blob_capacity == 262_144
        assert layout.pin_width == 4 and layout.fits(need)
        smaller = SegmentLayout(10, 2, 10, 10, 16, 100)
        assert layout.grown_for(smaller) == layout

    def test_session_reuse_is_identity_keyed(self):
        from repro.runtime import plan_for_instance

        instance = all_zero_edge_instance(cycle_graph(10), 3)
        plan = plan_for_instance(instance)
        session = ShmSession()
        try:
            assert session.ensure("rank2", plan, instance) == "segment"
            assert session.ensure("rank2", plan, instance) == "reuse"
            # A different kind over the same objects re-broadcasts.
            assert session.ensure("naive", plan, instance) in (
                "broadcast", "segment"
            )
        finally:
            session.close()
        assert live_segment_names() == ()

    def test_failed_broadcast_is_transactional(self, monkeypatch):
        """A rejected mid-broadcast ensure() must not poison the session.

        The back-to-back-solves hazard of the solve service: request A
        publishes, request B's broadcast raises partway (worker
        rejection, allocation failure), request B is retried.  The
        retry must republish — taking the ``reuse`` fast path against a
        segment whose header generation never advanced would feed warm
        workers a stale generation.
        """
        from repro.runtime import plan_for_instance
        from repro.runtime.shm import H_GENERATION, SharedInstanceSegment

        instance_a = all_zero_edge_instance(cycle_graph(10), 3)
        plan_a = plan_for_instance(instance_a)
        instance_b = all_zero_edge_instance(cycle_graph(14), 3)
        plan_b = plan_for_instance(instance_b)
        session = ShmSession()
        try:
            assert session.ensure("rank2", plan_a, instance_a) == "segment"
            generation = session.generation
            real_publish = SharedInstanceSegment.publish

            def failing_publish(self, blob, gen):
                raise RuntimeError("rejected mid-broadcast")

            monkeypatch.setattr(
                SharedInstanceSegment, "publish", failing_publish
            )
            with pytest.raises(RuntimeError):
                session.ensure("rank2", plan_b, instance_b)
            # Nothing committed: the generation is unchanged and the
            # half-published solve is forgotten.
            assert session.generation == generation

            monkeypatch.setattr(
                SharedInstanceSegment, "publish", real_publish
            )
            # The retried request republishes instead of claiming
            # "reuse" on the poisoned payload ...
            outcome = session.ensure("rank2", plan_b, instance_b)
            assert outcome in ("broadcast", "segment")
            assert session.generation == generation + 1
            # ... and the segment header agrees with the session, so
            # warm workers accept the generation.
            assert (
                int(session.segment.views.header[H_GENERATION])
                == session.generation
            )
            # Back-to-back reuse stays exact after the recovery.
            assert session.ensure("rank2", plan_b, instance_b) == "reuse"
            assert session.ensure("rank2", plan_a, instance_a) in (
                "broadcast", "segment"
            )
        finally:
            session.close()
        assert live_segment_names() == ()

    def test_tripwire_rejects_cells_sharing_an_event(self):
        """Two cells reading one pins row in a chunk raise, never decide."""
        from repro.core import vector
        from repro.errors import SimulationError
        from repro.runtime import plan_for_instance
        from repro.runtime.workers import _validate_chunk_disjoint

        instance = all_zero_edge_instance(cycle_graph(10), 3)
        plan = plan_for_instance(instance)
        template, sections = vector.lower_chunks(
            instance, "rank2", [(plan.classes[0].cells, 0, None)]
        )
        _validate_chunk_disjoint(sections[0])
        # Adjacent cycle edges share an event: a broken "class".
        cells = [
            cell for color_class in plan.classes
            for cell in color_class.cells
        ]
        clashing = template.section_for(instance, cells)
        with pytest.raises(SimulationError, match="read by two cells"):
            _validate_chunk_disjoint(clashing)

    def test_descriptor_is_tiny(self):
        import pickle

        descriptor = ChunkDescriptor(
            generation=1, class_index=0, start=0, stop=8, attempt=0
        )
        assert len(pickle.dumps(descriptor)) < 200
