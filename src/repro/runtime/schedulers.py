"""Pluggable execution backends for :class:`~repro.runtime.plan.FixPlan`.

Both schedulers produce bit-identical assignments, step records and phi
ledgers; they differ only in where the independent cells of a color
class are decided:

* :class:`SerialScheduler` — cells and ops in plan order, in-process.
  This is the differential oracle every other backend is tested
  against.
* :class:`ProcessScheduler` — cells are replayed in a process pool; the
  parent commits the returned choices in plan order, so the trace
  equals the serial one.  Workers re-validate read-set disjointness: a
  schedule bug raises instead of corrupting phi.  The solve is
  broadcast once into a
  :class:`~repro.runtime.shm.SharedInstanceSegment`; persistent warm
  workers receive only fixed-width chunk descriptors and write their
  decisions into a shared result region.  Dispatch is fault-tolerant:
  per-chunk deadlines, pool-rebuilding retries with bounded
  exponential backoff, and a final in-parent fallback keep the merge
  bit-identical under worker crashes and hangs (deterministically
  injectable through :class:`repro.faults.FaultPlan` or the
  ``REPRO_FAULTS`` environment spec).

The serial backend runs whole color classes through the fixers'
``decide_class``/``commit_class`` batch split when the vector decide
plane (:mod:`repro.core.vector`) accepts the class; a ``None`` from
``decide_class`` — scalar decide mode (``REPRO_DECIDE=scalar``), events
without compiled kernels — falls back to the per-op loop, which is the
differential oracle the batch path is tested against.  The process
backend batches *inside* the workers: each chunk is a section of the
same template lowering, run through the same wave executor
(:func:`repro.runtime.workers.execute_chunk_shm`).

Every scheduler publishes per-class span / op-count metrics through
:mod:`repro.obs`; cross-cell disjointness is checked once, when each
:class:`~repro.runtime.plan.ColorClass` is built.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import shutil
import tempfile
import time
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import (
    CancelledError as FuturesCancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.artifacts.store import STORE as _ARTIFACTS
from repro.errors import ReproError, SchedulerProtocolError, SimulationError
from repro.faults import FaultPlan, fault_plan_from_env
from repro.probability import engine as _engine
from repro.obs.profile import profile_mode_from_env, profiled
from repro.obs.recorder import active as _obs_active
from repro.obs.shard import TraceContext, collect_shard_fallback
from repro.planes import planes
from repro.core import vector
from repro.lll.instance import LLLInstance
from repro.runtime.plan import ColorClass, FixPlan
from repro.runtime.shm import (
    CLEANUP_ERRORS,
    ChunkDescriptor,
    ChunkPlan,
    ShmSession,
    report_cleanup_error,
)
from repro.runtime.workers import _shm_worker_init, execute_chunk_shm

#: Registered scheduler names, in documentation order.
SCHEDULER_NAMES = ("serial", "process")

#: Failure classes the process backend recovers from (everything else —
#: notably :class:`SchedulerProtocolError` and worker-side validation
#: errors — indicates a bug and propagates).
_RECOVERABLE_FAILURES = (
    TimeoutError,
    FuturesTimeoutError,
    FuturesCancelledError,
    BrokenProcessPool,
    OSError,
    EOFError,
)


def _is_recoverable_failure(error: BaseException) -> bool:
    """Whether a chunk failure is environmental (retry) or a bug (raise)."""
    return isinstance(error, _RECOVERABLE_FAILURES)


def _classify_failure(error: BaseException) -> str:
    """A stable label for a recoverable chunk failure, for obs events."""
    if isinstance(error, (TimeoutError, FuturesTimeoutError)):
        return "deadline"
    if isinstance(error, BrokenProcessPool):
        return "worker-death"
    if isinstance(error, FuturesCancelledError):
        return "cancelled"
    return "ipc-failure"


class Scheduler(ABC):
    """Executes a :class:`FixPlan` against a fixer.

    The fixer is a :class:`~repro.core.fixer.Fixer` (the rank-2, rank-3
    and naive fixers all are): ``fix_variable(name)`` decides and
    commits one op, ``decide_class(cells)`` batch-decides a class
    without touching the ledger (``None`` when the vector plane declines
    it), and ``commit_class(cells, choices)`` commits decided choices in
    plan order.  Every commit runs through the fixer's one commit loop,
    so the trace, the ledger and the recorder's ``fix`` events do not
    depend on which of these a scheduler calls.
    """

    #: Short name used by the CLI and the metrics.
    name: str = "abstract"

    def describe(self) -> str:
        """One-line config echo for run headers, reports and ``/healthz``:
        the backend, then every plane not at its default
        (``serial decide=scalar``)."""
        return " ".join(self._describe_backend() + planes().overrides())

    def _describe_backend(self) -> List[str]:
        return [self.name]

    def execute(self, fixer, plan: FixPlan, instance: LLLInstance) -> None:
        """Run every class of the plan, with metrics."""
        recorder = _obs_active()
        # REPRO_PROFILE only takes effect when a recorder is live — the
        # profile events need a trace to land in.
        self._profile_mode = (
            profile_mode_from_env() if recorder is not None else None
        )
        if recorder is not None:
            recorder.event(
                "runtime",
                "plan",
                scheduler=self.name,
                kind=plan.kind,
                classes=plan.num_classes,
                cells=plan.num_cells,
                ops=plan.num_ops,
                critical_path=plan.critical_path,
                local_rounds=plan.local_rounds,
            )
        with profiled(recorder, "scheduler", self._profile_mode,
                      name=f"execute:{self.name}"):
            for index, color_class in enumerate(plan.classes):
                start = time.perf_counter_ns() if recorder is not None else 0
                self._run_class(fixer, color_class, instance)
                if recorder is not None:
                    elapsed = time.perf_counter_ns() - start
                    recorder.record_span("runtime", "class", elapsed)
                    recorder.observe_quantile("runtime", "class_ns", elapsed)
                    recorder.count("runtime", "ops", color_class.num_ops)
                    recorder.count("runtime", "classes")
                    recorder.gauge("runtime", "classes_done", index + 1)
                    recorder.event(
                        "runtime",
                        "class",
                        scheduler=self.name,
                        color=color_class.color,
                        cells=len(color_class.cells),
                        ops=color_class.num_ops,
                        span=color_class.span,
                    )
                    recorder.maybe_snapshot()
        if recorder is not None:
            # One unified surfacing point: the engine's kernel/probability
            # cache counters and the artifact store's per-tier hit/miss/
            # eviction counters land in the same trace, as deltas since
            # the last publish.
            _engine.publish_stats(recorder)
            _ARTIFACTS.publish_stats(recorder)

    @abstractmethod
    def _run_class(
        self, fixer, color_class: ColorClass, instance: LLLInstance
    ) -> None:
        """Fix every op of one color class."""


class SerialScheduler(Scheduler):
    """Plan order, one variable at a time.

    Classes the vector plane accepts run as one batched
    ``decide_class``/``commit_class`` pass; everything else (and the
    whole plan under ``REPRO_DECIDE=scalar``) takes the historical
    one-``fix_variable``-per-op loop — the differential oracle.
    """

    name = "serial"

    def _run_class(
        self, fixer, color_class: ColorClass, instance: LLLInstance
    ) -> None:
        # ``decide_class`` mutates nothing, so a ``None`` (scalar mode,
        # missing kernels, a counted fallback) leaves the fixer exactly
        # where the per-op loop expects it.
        cells = color_class.cells
        choices = fixer.decide_class(cells)
        if choices is not None:
            fixer.commit_class(cells, choices)
            recorder = _obs_active()
            if recorder is not None:
                recorder.count("runtime", "class_batches")
            return
        for cell in cells:
            for op in cell.ops:
                fixer.fix_variable(op.variable)


@dataclasses.dataclass
class _ChunkState:
    """Dispatch bookkeeping for one chunk of cells."""

    #: Global chunk index (monotonic across classes) — the fault plan's
    #: addressing space and the obs events' correlation key.
    chunk_id: int
    #: Cell indices (into the class) this chunk carries.
    cells: List[int]
    #: 0-based dispatch attempt.
    attempt: int = 0
    #: Whether any attempt of this chunk has failed (for recovery obs).
    faulted: bool = False
    #: The chunk's lowered section and ``[start, stop)`` cell range —
    #: the range is the whole payload of a
    #: :class:`~repro.runtime.shm.ChunkDescriptor`.
    plan: Optional[ChunkPlan] = None


class _ProcessResources:
    """The pool and shm session of one :class:`ProcessScheduler`.

    Lives in its own object (not on the scheduler) so the scheduler's
    ``weakref.finalize`` callback can tear both down without keeping the
    scheduler itself alive — a dropped scheduler can never leak a pool
    or a ``/dev/shm`` segment past garbage collection.
    """

    __slots__ = ("pool", "session")

    def __init__(self) -> None:
        self.pool: Optional[ProcessPoolExecutor] = None
        self.session: Optional[ShmSession] = None


def _release_process_resources(box: _ProcessResources) -> None:
    """Finalizer body: shut the pool down, unlink the segment."""
    pool, box.pool = box.pool, None
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except CLEANUP_ERRORS as error:
            report_cleanup_error("finalizer_pool_shutdown", error)
    session, box.session = box.session, None
    if session is not None:
        try:
            session.close()
        except CLEANUP_ERRORS as error:
            report_cleanup_error("finalizer_session_close", error)


class ProcessScheduler(Scheduler):
    """Cells of a class run in a ``ProcessPoolExecutor``; commits stay
    in the parent, in plan order.

    The solve's chunks are lowered on the vector plane's template (the
    serial scheduler's own ``section_for``) and broadcast once, with the
    built kernel stack, into a
    :class:`~repro.runtime.shm.SharedInstanceSegment`; warm workers
    attach at pool start and receive only fixed-width
    :class:`~repro.runtime.shm.ChunkDescriptor`\\ s per chunk.  Per
    class the parent copies the rows and slots its chunks read from the
    fixer's run state into the segment, decisions come back through a
    preallocated shared result region, and the pool + segment stay warm
    across executes until :meth:`close` (or GC/atexit via
    ``weakref.finalize`` — no leaked ``/dev/shm`` entries).

    Workers have one path: the chunk's section through the serial
    vector path's wave executor.  A fully worker-decided class commits
    through the fixer's ``commit_class``, exactly like the serial
    scheduler's.  Cells that are not dispatched — scalar decide mode, a
    chunk the batch cannot express, a fixer whose run state cannot be
    specialised — execute in the parent at their merge position through
    the per-op oracle, preserving order.  ``max_workers`` bounds the
    pool; ``min_dispatch_ops`` routes tiny classes around the pool
    entirely.

    Failure semantics (see docs/scheduling.md): every chunk result is
    awaited with ``deadline`` seconds of patience; a timeout or a dead
    worker (``BrokenProcessPool``) marks the chunk failed, the pool is
    abandoned and rebuilt, and the chunk is resubmitted with bounded
    exponential backoff up to ``max_retries`` times.  A chunk that
    exhausts its retries falls back to in-parent execution at its merge
    position — which is *exactly* the serial oracle's arithmetic, so
    recovery never changes the transcript.  Malformed worker replies
    (wrong cell count, short choice lists) raise
    :class:`~repro.errors.SchedulerProtocolError` before anything is
    committed — no silent partial cells.  All of it is observable:
    ``runtime/fault``, ``runtime/retry`` and ``runtime/fallback`` events
    carry a shared ``scope`` key (``chunk:<id>``) that
    :func:`repro.core.audit.certify_recovery` cross-checks.

    ``fault_plan`` injects deterministic failures
    (:class:`~repro.faults.FaultPlan`); when omitted, the ambient
    ``REPRO_FAULTS`` environment spec applies (``None`` disables).
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        min_dispatch_ops: int = 2,
        deadline: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        fault_plan: Optional[FaultPlan] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_workers is None:
            # Resolve the worker count ourselves instead of reaching
            # into the pool's private ``_max_workers`` after the fact.
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ReproError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._num_workers = int(max_workers)
        self._min_dispatch_ops = max(int(min_dispatch_ops), 1)
        if fault_plan is None:
            fault_plan = fault_plan_from_env()
        self._fault_plan = fault_plan
        if deadline is None and fault_plan is not None:
            deadline = fault_plan.deadline
        self._deadline = deadline
        self._max_retries = max(int(max_retries), 0)
        self._backoff_base = max(float(backoff_base), 0.0)
        self._backoff_cap = max(float(backoff_cap), 0.0)
        self._sleep = sleep
        self._box = _ProcessResources()
        self._finalizer = weakref.finalize(
            self, _release_process_resources, self._box
        )
        self._next_chunk_id = 0
        self._shard_dir: Optional[str] = None
        self._profile_mode: Optional[str] = None
        #: Segment name the warm pool's initializers attached to; the
        #: pool is rebuilt whenever the session's segment name drifts
        #: from it (see :meth:`_ensure_session`).
        self._attached_segment: Optional[str] = None
        #: Per-execute IPC accounting, readable after ``execute`` —
        #: the E8 report and the run header pull from here.
        self.ipc_stats: Dict[str, object] = {}

    @property
    def _pool(self) -> Optional[ProcessPoolExecutor]:
        return self._box.pool

    @_pool.setter
    def _pool(self, pool: Optional[ProcessPoolExecutor]) -> None:
        self._box.pool = pool

    @property
    def _session(self) -> Optional[ShmSession]:
        return self._box.session

    def _describe_backend(self) -> List[str]:
        parts = [f"process workers={self._num_workers}"]
        if self._deadline is not None:
            parts.append(f"deadline={self._deadline:g}s")
        if self._fault_plan is not None:
            parts.append("faults=on")
        return parts

    def close(self) -> None:
        """Shut the pool down and unlink the shared segment (idempotent).

        Runs automatically when the scheduler is garbage-collected or at
        interpreter exit (``weakref.finalize``); long-lived callers that
        churn schedulers should call it eagerly to bound ``/dev/shm``
        usage.
        """
        self._finalizer()

    def execute(self, fixer, plan: FixPlan, instance: LLLInstance) -> None:
        recorder = _obs_active()
        self.ipc_stats = {
            "workers": self._num_workers,
            "broadcasts": 0,
            "generation": 0,
            "chunks": 0,
            "shm_bytes": 0,
            "descriptor_bytes": 0,
            "worker_warm_hits": 0,
        }
        if recorder is not None:
            # Workers append crash-survivable telemetry here; the merged
            # trace is the durable artifact, so the shards are temporary.
            self._shard_dir = tempfile.mkdtemp(prefix="repro-shards-")
        try:
            # The pool stays warm across executes (that is the point);
            # ``close()`` or the finalizer reclaims it.  Scalar decide
            # mode dispatches nothing, so it publishes nothing either.
            if planes().decide == "vector":
                self._ensure_session(fixer, plan, instance, recorder)
            super().execute(fixer, plan, instance)
        finally:
            if self._shard_dir is not None:
                shutil.rmtree(self._shard_dir, ignore_errors=True)
                self._shard_dir = None

    def _ensure_session(
        self, fixer, plan: FixPlan, instance: LLLInstance, recorder
    ) -> None:
        """Publish the solve into the shared segment before any class.

        A new segment name invalidates the warm pool (its initializers
        attached the old name), so the pool is rebuilt; a same-segment
        re-broadcast only bumps the generation — warm workers re-read
        the blob on their next chunk and keep their processes.
        """
        if self._box.session is None:
            self._box.session = ShmSession()
        session = self._box.session
        outcome = session.ensure(
            fixer.vector_kind,
            plan,
            instance,
            self._num_workers,
            self._min_dispatch_ops,
        )
        # The warm pool is only valid while it is attached to the
        # session's current segment *name*.  The name comparison (not
        # ``outcome == "segment"``) also covers an earlier ensure that
        # reallocated the segment and then failed before returning: its
        # outcome was lost to the raise, but the mismatch is durable.
        if (
            self._pool is not None
            and self._attached_segment != session.segment.name
        ):
            # No fault here — workers are idle between executes, so a
            # graceful shutdown is safe and releases their attachments.
            self._pool.shutdown(wait=True)
            self._pool = None
        self.ipc_stats["generation"] = session.generation
        if outcome == "reuse":
            return
        blob_bytes = len(session.lowered.blob)
        self.ipc_stats["broadcasts"] = (
            int(self.ipc_stats["broadcasts"]) + 1
        )
        self.ipc_stats["shm_bytes"] = (
            int(self.ipc_stats["shm_bytes"]) + blob_bytes
        )
        if recorder is not None:
            recorder.count("runtime", "shm_broadcasts")
            recorder.count("runtime", "shm_bytes", blob_bytes)
            recorder.event(
                "runtime",
                "shm_broadcast",
                outcome=outcome,
                generation=session.generation,
                blob_bytes=blob_bytes,
                segment_bytes=session.segment.layout.total_bytes,
                classes=len(session.lowered.classes),
            )

    def _acquire_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Warm workers: every process attaches the segment once,
            # before its first chunk.
            self._attached_segment = self._session.segment.name
            self._pool = ProcessPoolExecutor(
                max_workers=self._num_workers,
                initializer=_shm_worker_init,
                initargs=(self._attached_segment,),
            )
        return self._pool

    def _abandon_pool(self) -> None:
        """Discard a pool that failed or may hold hung workers.

        ``shutdown(wait=True)`` on a pool with a hung worker would block
        the parent forever — the precise failure mode the deadline
        exists to bound — so the pool is shut down without waiting and
        its remaining processes are terminated best-effort, then killed
        if they ignore the terminate.  The join matters: a terminated
        worker's segment mapping dies with the process, so a retry wave
        can never race a half-dead writer over the shared result region.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except CLEANUP_ERRORS as error:
            report_cleanup_error("abandon_pool_shutdown", error)
        processes = list(
            (getattr(pool, "_processes", None) or {}).values()
        )
        for process in processes:
            try:
                process.terminate()
            except CLEANUP_ERRORS as error:
                report_cleanup_error("abandon_pool_terminate", error)
        for process in processes:
            try:
                process.join(0.5)
                if process.is_alive():
                    process.kill()
                    process.join(0.5)
            except CLEANUP_ERRORS as error:
                report_cleanup_error("abandon_pool_join", error)

    def _run_class(
        self, fixer, color_class: ColorClass, instance: LLLInstance
    ) -> None:
        recorder = _obs_active()
        choices_by_cell, state, chunks = self._collect(
            fixer, color_class, recorder
        )

        # Deterministic merge: plan cell order, regardless of which
        # worker finished first (or whether a cell ran in-parent).
        merge_start = time.perf_counter_ns() if recorder is not None else 0
        cells = color_class.cells
        if state is not None and len(choices_by_cell) == len(cells):
            # Every cell was decided by a worker: commit through the
            # fixer's class commit, exactly as the serial vector path.
            vector.park_worker_class(
                fixer, state, cells, [chunk.section for chunk in chunks]
            )
            fixer.commit_class(
                cells, [choices_by_cell[index] for index in range(len(cells))]
            )
        else:
            for index, cell in enumerate(cells):
                choices = choices_by_cell.get(index)
                if choices is None:
                    for op in cell.ops:
                        fixer.fix_variable(op.variable)
                    continue
                if len(choices) != len(cell.ops):
                    raise SchedulerProtocolError(
                        f"cell {cell.owner!r}: merge received "
                        f"{len(choices)} choices for {len(cell.ops)} ops"
                    )
                fixer.commit_class((cell,), (choices,))
        if recorder is not None:
            recorder.record_span(
                "runtime", "merge",
                time.perf_counter_ns() - merge_start,
                color=color_class.color, cells=len(color_class.cells),
            )

    # ------------------------------------------------------------------
    # Per-class collection
    # ------------------------------------------------------------------
    def _collect(self, fixer, color_class: ColorClass, recorder):
        """Stage the class, ship descriptors, decode the results.

        Returns ``(choices by cell index, run state, chunks)``; the run
        state is ``None`` when nothing was dispatched.  The parent copies
        the rows and slots the class's chunks read from the fixer's run
        state into the shared segment (``shm_refresh`` span), submits
        fixed-width :class:`~repro.runtime.shm.ChunkDescriptor`\\ s,
        decodes the workers' decisions straight out of the shared
        result region, and copies each decided chunk's post-decision
        rows back into the run state.
        """
        session = self._session
        if planes().decide == "scalar" or session is None:
            return {}, None, []
        class_index = session.class_index(color_class)
        chunks = session.chunks(class_index)
        if not chunks:
            return {}, None, []
        refresh_start = time.perf_counter_ns() if recorder is not None else 0
        state = vector.open_worker_class(
            fixer,
            session.lowered.template,
            [chunk.section for chunk in chunks],
        )
        if state is None:
            return {}, None, []
        written = session.stage(state, class_index)
        self.ipc_stats["shm_bytes"] = (
            int(self.ipc_stats.get("shm_bytes", 0)) + written
        )
        if recorder is not None:
            recorder.record_span(
                "runtime", "shm_refresh",
                time.perf_counter_ns() - refresh_start,
                color=color_class.color,
                cells=sum(chunk.stop - chunk.start for chunk in chunks),
            )
            recorder.observe_quantile(
                "runtime", "shm_bytes_per_class", written
            )
            recorder.count("runtime", "shm_bytes", written)
        self._emit_workers_event(recorder, color_class, chunks)
        states = self._make_states(chunks)
        results = self._dispatch(color_class, class_index, states)
        for chunk in chunks:
            if chunk.start in results:
                session.absorb(state, chunk)
        return results, state, chunks

    def _make_states(self, chunks: Sequence[ChunkPlan]) -> List[_ChunkState]:
        """One dispatch state per chunk."""
        states: List[_ChunkState] = []
        for chunk in chunks:
            states.append(
                _ChunkState(
                    self._next_chunk_id,
                    list(range(chunk.start, chunk.stop)),
                    plan=chunk,
                )
            )
            self._next_chunk_id += 1
        self.ipc_stats["chunks"] = (
            int(self.ipc_stats.get("chunks", 0)) + len(states)
        )
        return states

    @staticmethod
    def _emit_workers_event(
        recorder, color_class: ColorClass, chunks: Sequence[ChunkPlan]
    ) -> None:
        if recorder is None:
            return
        chunk_ops = [chunk.section.num_ops for chunk in chunks]
        recorder.event(
            "runtime",
            "workers",
            color=color_class.color,
            workers=len(chunks),
            chunk_ops=chunk_ops,
            utilization=(
                min(chunk_ops) / max(chunk_ops)
                if chunk_ops and max(chunk_ops) > 0
                else 1.0
            ),
        )

    # ------------------------------------------------------------------
    # Dispatch with deadlines, retries and fallback
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        color_class: ColorClass,
        class_index: int,
        states: Sequence[_ChunkState],
    ) -> Dict[int, List[object]]:
        """Run the chunks through the pool; recover from failed workers.

        Each attempt ships one descriptor (:meth:`_submit`); each reply
        is checked against the chunk and decoded (:meth:`_harvest`),
        raising :class:`~repro.errors.SchedulerProtocolError` on garbled
        acks, which is never retried.  Returns the collected choices
        per cell index.  Cells of chunks that exhausted their retry
        budget are deliberately *absent* from the result — the merge
        loop executes them in-parent at their plan position, which
        reproduces the serial transcript exactly.
        """
        recorder = _obs_active()
        plan = self._fault_plan
        results: Dict[int, List[object]] = {}
        pending: List[_ChunkState] = list(states)
        while pending:
            pool = self._acquire_pool()
            if recorder is not None:
                recorder.gauge("runtime", "pending_chunks", len(pending))
                recorder.gauge("runtime", "pool_workers", self._num_workers)
            submitted = []
            failed: List[_ChunkState] = []
            for state in pending:
                fault = (
                    plan.worker_fault(state.chunk_id, state.attempt)
                    if plan is not None
                    else None
                )
                trace: Optional[TraceContext] = None
                if recorder is not None:
                    # The dispatch event is this attempt's causal parent:
                    # its span_id is shipped to the worker and stamped
                    # (as parent_span) on every merged shard record.
                    span_id = f"chunk:{state.chunk_id}:a{state.attempt}"
                    trace = TraceContext(
                        run_id=recorder.run_id,
                        parent_span=span_id,
                        worker_id=f"worker:{state.chunk_id}",
                        attempt=state.attempt,
                        shard_path=(
                            os.path.join(
                                self._shard_dir,
                                f"chunk{state.chunk_id}-a{state.attempt}"
                                ".jsonl",
                            )
                            if self._shard_dir is not None
                            else None
                        ),
                        profile=self._profile_mode,
                    )
                    recorder.event(
                        "runtime",
                        "dispatch",
                        span_id=span_id,
                        scope=f"chunk:{state.chunk_id}",
                        chunk=state.chunk_id,
                        attempt=state.attempt,
                        cells=len(state.cells),
                        worker_id=trace.worker_id,
                    )
                try:
                    future = self._submit(
                        pool, class_index, state, fault, trace, recorder
                    )
                except Exception as error:
                    # A crashed worker can break the pool while this
                    # wave is still being submitted; a synchronous
                    # submit failure is the same environmental fault as
                    # a dead future and takes the same retry path.
                    if not _is_recoverable_failure(error):
                        raise
                    state.faulted = True
                    failed.append(state)
                    if recorder is not None:
                        self._merge_shard(recorder, trace, state.attempt,
                                          collect_shard_fallback(
                                              trace.shard_path))
                        recorder.event(
                            "runtime",
                            "fault",
                            site="scheduler",
                            kind=_classify_failure(error),
                            scope=f"chunk:{state.chunk_id}",
                            chunk=state.chunk_id,
                            attempt=state.attempt,
                            cells=len(state.cells),
                            error=repr(error),
                        )
                    continue
                submitted.append((state, future, trace))
            for state, future, trace in submitted:
                wait_start = (
                    time.perf_counter_ns() if recorder is not None else 0
                )
                try:
                    reply = future.result(timeout=self._deadline)
                except (SchedulerProtocolError, SimulationError):
                    # A malformed reply or a tripped disjointness check
                    # is a correctness bug, not an environmental fault:
                    # surface it, never retry it.
                    raise
                except ReproError as error:
                    # A typed decide error from the batch arithmetic:
                    # the chunk's cells run in the parent at merge
                    # position, where the per-op oracle reproduces the
                    # scalar outcome with its exact op attribution.
                    if recorder is not None:
                        recorder.event(
                            "runtime",
                            "fallback",
                            site="worker",
                            scope=f"chunk:{state.chunk_id}",
                            chunk=state.chunk_id,
                            cells=len(state.cells),
                            reason=repr(error),
                        )
                    continue
                except (Exception, FuturesCancelledError) as error:
                    # Timeout, dead worker, cancelled wave, IPC failure.
                    if not _is_recoverable_failure(error):
                        raise
                    state.faulted = True
                    failed.append(state)
                    if recorder is not None:
                        # The reply died with the worker; recover the
                        # partial telemetry from its eager shard file,
                        # tagged with this attempt number — a later
                        # retry merges its own records separately.
                        self._merge_shard(recorder, trace, state.attempt,
                                          collect_shard_fallback(
                                              trace.shard_path))
                        recorder.event(
                            "runtime",
                            "fault",
                            site="scheduler",
                            kind=_classify_failure(error),
                            scope=f"chunk:{state.chunk_id}",
                            chunk=state.chunk_id,
                            attempt=state.attempt,
                            cells=len(state.cells),
                            error=repr(error),
                        )
                    continue
                if recorder is not None:
                    elapsed = time.perf_counter_ns() - wait_start
                    recorder.record_span(
                        "runtime", "chunk_wait", elapsed,
                        chunk=state.chunk_id, attempt=state.attempt,
                    )
                    recorder.observe_quantile(
                        "runtime", "chunk_wait_ns", elapsed
                    )
                records = getattr(reply, "records", None)
                if records is not None and recorder is not None:
                    # Merge before validation: a rejected (garbled)
                    # reply still contributed worker telemetry, and the
                    # trace should show what the worker did.
                    self._merge_shard(
                        recorder, trace, state.attempt, records
                    )
                if getattr(reply, "warm", False):
                    self.ipc_stats["worker_warm_hits"] = (
                        int(self.ipc_stats.get("worker_warm_hits", 0)) + 1
                    )
                    if recorder is not None:
                        recorder.count("runtime", "worker_warm_hits")
                for index, choices in self._harvest(
                    color_class, state, reply
                ):
                    results[index] = choices
                if state.faulted and recorder is not None:
                    recorder.event(
                        "runtime",
                        "retry",
                        site="scheduler",
                        scope=f"chunk:{state.chunk_id}",
                        chunk=state.chunk_id,
                        attempt=state.attempt,
                        outcome="recovered",
                    )
            if failed:
                # The pool may hold hung or dead workers either way;
                # abandon it wholesale and rebuild for the retry wave.
                self._abandon_pool()
            pending = []
            for state in failed:
                if state.attempt >= self._max_retries:
                    if recorder is not None:
                        recorder.event(
                            "runtime",
                            "fallback",
                            site="scheduler",
                            scope=f"chunk:{state.chunk_id}",
                            chunk=state.chunk_id,
                            cells=len(state.cells),
                            reason=(
                                f"retries exhausted after "
                                f"{state.attempt + 1} attempts"
                            ),
                        )
                    continue
                delay = min(
                    self._backoff_cap,
                    self._backoff_base * (2.0 ** state.attempt),
                )
                state.attempt += 1
                if recorder is not None:
                    recorder.event(
                        "runtime",
                        "retry",
                        site="scheduler",
                        scope=f"chunk:{state.chunk_id}",
                        chunk=state.chunk_id,
                        attempt=state.attempt,
                        backoff_seconds=delay,
                        outcome="resubmitted",
                    )
                if delay > 0:
                    self._sleep(delay)
                pending.append(state)
        if recorder is not None:
            recorder.gauge("runtime", "pending_chunks", 0)
        return results

    @staticmethod
    def _merge_shard(
        recorder,
        trace: Optional[TraceContext],
        attempt: int,
        records: Sequence[Dict[str, object]],
    ) -> None:
        """Re-emit one worker attempt's shard records into the trace.

        ``attempt`` is passed explicitly (rather than read from the
        context) because the records of a failed attempt are merged
        while the chunk state may already be marked for a retried
        dispatch — the tag must name the attempt that *produced* the
        records.
        """
        if trace is None:
            return
        for record in records:
            recorder.emit_shard_record(
                record,
                worker_id=trace.worker_id,
                parent_span=trace.parent_span,
                attempt=attempt,
            )

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        class_index: int,
        state: _ChunkState,
        fault,
        trace: Optional[TraceContext],
        recorder,
    ) -> Future:
        """Ship one chunk attempt to the pool as a fixed-width descriptor."""
        descriptor = ChunkDescriptor(
            generation=self._session.generation,
            class_index=class_index,
            start=state.plan.start,
            stop=state.plan.stop,
            attempt=state.attempt,
        )
        nbytes = len(
            pickle.dumps(descriptor, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self.ipc_stats["descriptor_bytes"] = (
            int(self.ipc_stats.get("descriptor_bytes", 0)) + nbytes
        )
        if recorder is not None:
            recorder.observe_quantile(
                "runtime", "descriptor_bytes_per_chunk", nbytes
            )
            recorder.count("runtime", "descriptor_bytes", nbytes)
        return pool.submit(execute_chunk_shm, descriptor, fault, trace)

    def _harvest(
        self,
        color_class: ColorClass,
        state: _ChunkState,
        ack,
    ) -> List[Tuple[int, List[object]]]:
        """Reject short or garbled acks, then decode the chunk's rows.

        Nothing is decoded (let alone committed) until every cell's
        acknowledged choice count matches its op count.
        """
        counts = getattr(ack, "counts", None)
        if counts is None:
            raise SchedulerProtocolError(
                f"chunk {state.chunk_id}: shm worker returned "
                f"{type(ack).__name__} instead of a chunk ack"
            )
        if len(counts) != len(state.cells):
            raise SchedulerProtocolError(
                f"chunk {state.chunk_id}: worker acknowledged "
                f"{len(counts)} cell results for {len(state.cells)} "
                f"cells"
            )
        for cell_id, count in zip(state.cells, counts):
            cell = color_class.cells[cell_id]
            if count != len(cell.ops):
                raise SchedulerProtocolError(
                    f"cell {cell.owner!r} (chunk {state.chunk_id}): "
                    f"worker wrote {count} choices for "
                    f"{len(cell.ops)} ops"
                )
        return list(
            zip(state.cells, self._session.decode_chunk(state.plan))
        )


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Factory used by the CLI and the benchmarks.

    Raises
    ------
    ReproError
        If ``name`` is not one of :data:`SCHEDULER_NAMES`.
    """
    if name == "serial":
        return SerialScheduler(**kwargs)
    if name == "process":
        return ProcessScheduler(**kwargs)
    raise ReproError(
        f"unknown scheduler {name!r}; expected one of {SCHEDULER_NAMES}"
    )
