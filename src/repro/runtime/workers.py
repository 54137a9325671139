"""Cell payloads and the process-pool worker entry point.

:class:`~repro.runtime.schedulers.ProcessScheduler` cannot ship the
fixers to workers: a :class:`~repro.probability.BadEvent` closes over an
arbitrary predicate.  What *can* cross the process boundary is
everything a decision actually reads — the compiled
:class:`~repro.probability.engine.EventKernel` (plain tuples), the
:class:`~repro.probability.DiscreteVariable`\\ s and the cell's slice of
the bookkeeping ledger.  The parent publishes them once per solve into
the shared segment (:mod:`repro.runtime.shm`); per chunk, the worker
rebuilds each cell as a :class:`CellPayload` from the segment's live
pins and phi regions, replays the cell's decisions through the *same*
pure selection rules (:mod:`repro.core.selection`) against
kernel-backed event views, and writes its choices into the shared
result region.  The parent commits them in deterministic plan order.

Bit-identity argument: the view's ``conditional_increases`` reproduces
the kernel path of :meth:`BadEvent.conditional_increases` operation for
operation (one ``probability`` pin query plus one ``conditional_masses``
bucket pass, same division order), and the worker-side ledger updates
are the same arithmetic the fixers' ``commit`` performs — so every
worker decision equals the decision the parent would have made at the
same point of the serial order.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.errors import SchedulerProtocolError, SimulationError
from repro.faults.plan import WorkerFault
from repro.obs.profile import profiled
from repro.obs.shard import ShardRecorder, TraceContext
from repro.runtime.shm import (
    H_GENERATION,
    AttachedSegment,
    ChunkDescriptor,
    encode_choice,
)
from repro.core.selection import (
    select_rank1,
    select_rank2,
    select_rank3,
    select_rankr,
)
from repro.probability import DiscreteVariable, PartialAssignment
from repro.probability.engine import EventKernel


class KernelEventView:
    """A stand-in for a :class:`BadEvent` inside a worker process.

    Holds the event's compiled kernel plus the pins of its scope at
    dispatch time; as the cell fixes its own variables the view's pins
    are updated, exactly mirroring how the parent's assignment would
    evolve.  Implements the two members the selection rules use:
    ``name`` and :meth:`conditional_increases`.
    """

    __slots__ = ("name", "kernel", "scope_names", "pins")

    def __init__(
        self,
        name: Hashable,
        kernel: EventKernel,
        scope_names: Tuple[Hashable, ...],
        pins: List[int],
    ) -> None:
        self.name = name
        self.kernel = kernel
        self.scope_names = scope_names
        self.pins = list(pins)

    def pin(self, variable: DiscreteVariable, value: Hashable) -> None:
        """Record that ``variable`` was fixed to ``value`` (if in scope)."""
        try:
            position = self.scope_names.index(variable.name)
        except ValueError:
            return
        index = self.kernel.value_index(position, value)
        if index is None:
            raise SimulationError(
                f"worker event {self.name!r}: fixed value {value!r} is "
                f"outside the support of {variable.name!r}"
            )
        self.pins[position] = index

    def conditional_increases(
        self,
        assignment: PartialAssignment,
        variable: DiscreteVariable,
    ) -> Dict[Hashable, float]:
        """The kernel leg of ``BadEvent.conditional_increases``, verbatim."""
        if variable.name not in self.scope_names:
            return {value: 1.0 for value, _prob in variable.support_items()}
        context = f"event {self.name!r}"
        before = self.kernel.probability(self.pins, context)
        if before == 0.0:
            return {value: 0.0 for value, _prob in variable.support_items()}
        target = self.scope_names.index(variable.name)
        afters = self.kernel.conditional_masses(self.pins, target, context)
        return {
            value: afters[self.kernel.value_index(target, value)] / before
            for value, _prob in variable.support_items()
        }


@dataclass(frozen=True)
class EventPayload:
    """Everything a worker needs to reconstruct one event's view."""

    name: Hashable
    kernel: EventKernel
    scope_names: Tuple[Hashable, ...]
    #: Pinned value indices at dispatch time (``-1`` = free).
    pins: Tuple[int, ...]


@dataclass(frozen=True)
class OpPayload:
    """One fixing: the variable object plus its event names in order."""

    variable: DiscreteVariable
    event_names: Tuple[Hashable, ...]


@dataclass(frozen=True)
class CellPayload:
    """A cell serialised for out-of-process execution.

    ``ledger`` carries the cell's slice of the parent bookkeeping:
    ``{frozenset of event names: {event name: weight}}`` — edge weight
    pairs for the rank-2 fixer, per-edge phi values for the rank-3
    fixer's P* state, hyperedge weight vectors for the naive fixer.
    """

    owner: Hashable
    #: Selection discipline: ``"rank2"``, ``"rank3"`` or ``"naive"``.
    kind: str
    ops: Tuple[OpPayload, ...]
    events: Tuple[EventPayload, ...]
    ledger: Tuple[Tuple[FrozenSet[Hashable], Tuple[Tuple[Hashable, float], ...]], ...]

    @property
    def read_events(self) -> FrozenSet[Hashable]:
        """The cell's 1-hop read set (for worker-side disjointness checks)."""
        return frozenset(payload.name for payload in self.events)


def _edge_key(u: Hashable, v: Hashable) -> FrozenSet[Hashable]:
    return frozenset((u, v))


def execute_cell(payload: CellPayload) -> List[object]:
    """Replay one cell's decisions; returns the choices in op order."""
    views = {
        event.name: KernelEventView(
            event.name, event.kernel, event.scope_names, list(event.pins)
        )
        for event in payload.events
    }
    ledger: Dict[FrozenSet[Hashable], Dict[Hashable, float]] = {
        key: dict(entries) for key, entries in payload.ledger
    }
    assignment = PartialAssignment()
    choices: List[object] = []
    for op in payload.ops:
        events = [views[name] for name in op.event_names]
        names = op.event_names
        if payload.kind == "naive":
            key = frozenset(names)
            weights = tuple(ledger[key][name] for name in names)
            choice = select_rankr(op.variable, events, weights, assignment)
            if len(choice.new_weights) != len(names):
                raise SchedulerProtocolError(
                    f"cell {payload.owner!r}: selection returned "
                    f"{len(choice.new_weights)} weights for {len(names)} "
                    f"events — refusing to commit a partial ledger update"
                )
            for name, new_weight in zip(names, choice.new_weights):
                ledger[key][name] = new_weight
        elif len(events) == 1:
            choice = select_rank1(op.variable, events[0], assignment)
        elif len(events) == 2:
            u, v = names
            edge = _edge_key(u, v)
            weights = (ledger[edge][u], ledger[edge][v])
            choice = select_rank2(op.variable, events, weights, assignment)
            ledger[edge][u], ledger[edge][v] = choice.new_weights
        else:
            u, v, w = names
            uv, uw, vw = _edge_key(u, v), _edge_key(u, w), _edge_key(v, w)
            triple = (
                ledger[uv][u] * ledger[uw][u],
                ledger[uv][v] * ledger[vw][v],
                ledger[uw][w] * ledger[vw][w],
            )
            choice = select_rank3(op.variable, events, triple, assignment)
            decomposition = choice.decomposition
            ledger[uv][u], ledger[uv][v] = decomposition.a1, decomposition.b1
            ledger[uw][u], ledger[uw][w] = decomposition.a2, decomposition.c2
            ledger[vw][v], ledger[vw][w] = decomposition.b3, decomposition.c3
        assignment.fix(op.variable, choice.value)
        for view in views.values():
            view.pin(op.variable, choice.value)
        choices.append(choice)
    return choices


def _apply_worker_fault(
    fault: Optional[WorkerFault],
    results: List[List[object]],
    shard: Optional[ShardRecorder] = None,
) -> List[List[object]]:
    """Execute a post-compute injected fault inside the worker.

    ``hang`` and ``slow`` sleep — the former past any sane deadline, the
    latter briefly; ``garble`` truncates the last cell's reply, which
    the parent must reject as a protocol violation instead of committing
    a partial cell.  (``crash`` is handled pre-compute in
    :func:`execute_chunk_shm`: the process dies before producing
    results, and the parent sees a ``BrokenProcessPool``.)  With a
    shard recorder installed the injection is announced *before* it
    executes, so a worker terminated mid-hang still leaves the
    ``fault_injected`` event in its shard file.
    """
    if fault is None:
        return results
    if shard is not None:
        shard.event("worker", "fault_injected", **fault.as_payload())
    if fault.kind in ("hang", "slow"):
        time.sleep(fault.seconds)
        return results
    if fault.kind == "garble":
        garbled = [list(choices) for choices in results]
        if garbled and garbled[-1]:
            garbled[-1].pop()
        elif garbled:
            garbled.pop()
        return garbled
    raise SimulationError(f"unknown injected worker fault {fault.kind!r}")


def _validate_chunk_disjoint(payloads: Sequence[CellPayload]) -> None:
    """Raise if two cells of one chunk read the same event."""
    touched: set = set()
    for payload in payloads:
        reads = payload.read_events
        overlap = touched & reads
        if overlap:
            raise SimulationError(
                f"worker chunk: events {sorted(map(repr, overlap))} are "
                f"read by two cells of one class"
            )
        touched.update(reads)


# --------------------------------------------------------------------------
# Shared-memory worker
#
# The pool's initializer attaches the parent's SharedInstanceSegment once
# per worker process; thereafter each task is a compact fixed-width
# ChunkDescriptor.  The worker rebuilds CellPayloads from the segment's
# pins/phi regions (the static, solve-invariant part — kernels, variables,
# ledger topology — unpickles once per broadcast from the segment blob),
# runs the decide path, and writes its choices into the shared result
# region instead of pickling them back.


@dataclass
class ShmChunkAck:
    """A shm chunk's reply: per-cell result counts, not the results.

    The decisions themselves live in the segment's result region; the
    parent validates ``counts`` against the chunk's op counts (the garble
    tripwire — a truncated write shows up as a short count) before
    decoding a single row.  ``warm`` reports whether the worker reused a
    cached :class:`~repro.core.vector.ClassProgram` for this chunk — the
    parent aggregates it into the ``worker_warm_hits`` metric.
    """

    counts: Tuple[int, ...]
    warm: bool
    records: List[Dict[str, object]] = field(default_factory=list)


class _ShmWorkerState:
    """Per-process warm state: the attached segment plus derived caches.

    ``programs`` caches lowered :class:`ClassProgram`\\ s keyed by
    ``(class_index, start, stop)`` — across fixer iterations the same
    chunk boundaries recur, so after the first pass a chunk only needs a
    pins/ledger refresh, not a re-lowering.  Both caches are dropped on
    generation change (a new solve published into the segment).
    """

    def __init__(self, name: str) -> None:
        self.attached = AttachedSegment(name)
        self.generation = -1
        self.static = None
        self.programs: Dict[Tuple[int, int, int], object] = {}
        self.ops_cache: Dict[Tuple[int, int], Tuple[OpPayload, ...]] = {}

    def sync(self, generation: int) -> None:
        """Adopt the segment's published solve if ours is stale."""
        if self.generation == generation:
            return
        header_generation = int(self.attached.views.header[H_GENERATION])
        if header_generation != generation:
            raise SchedulerProtocolError(
                f"shm worker: descriptor generation {generation} does not "
                f"match segment generation {header_generation} — the parent "
                f"republished mid-dispatch"
            )
        self.static = pickle.loads(self.attached.read_blob())
        self.generation = generation
        self.programs.clear()
        self.ops_cache.clear()
        self._prewarm()

    def _prewarm(self) -> None:
        """Pre-warm the per-process ArtifactStore from the new blob.

        Interns every kernel fingerprint and, with the artifact plane
        on, builds each class's stacked truth table before the first
        chunk arrives — so chunk latency never pays the stack build.
        Best-effort: a failure here only forfeits warmth, and only the
        error types the stack build is known to raise are suppressed —
        the same build re-runs on the chunk path, where a real failure
        surfaces through the instrumented vector fallback instead of
        vanishing here.
        """
        from repro.artifacts.store import artifacts_enabled
        from repro.core import vector
        from repro.errors import ReproError

        for cells in self.static.classes:
            kernels: List[EventKernel] = []
            seen: set = set()
            for cell in cells:
                if cell is None:
                    continue
                for event in cell.events:
                    fingerprint = event.kernel.fingerprint()
                    if fingerprint not in seen:
                        seen.add(fingerprint)
                        kernels.append(event.kernel)
            if kernels and artifacts_enabled():
                try:
                    vector._shared_stack(tuple(kernels))
                except (ReproError, ValueError, TypeError, MemoryError):
                    pass


_SHM_WORKER: Optional[_ShmWorkerState] = None


def _shm_worker_close() -> None:
    """atexit hook: detach the worker's segment view (never unlinks)."""
    global _SHM_WORKER
    state, _SHM_WORKER = _SHM_WORKER, None
    if state is not None:
        state.attached.close()


def _shm_worker_init(
    name: str,
    artifacts: Optional[str] = None,
    decide: Optional[str] = None,
) -> None:
    """Pool initializer: attach the segment and pin backend modes.

    Runs once per worker process.  Modes are pinned *before* the first
    chunk so a parent-side ``set_decide_mode``/``set_artifacts_mode``
    governs workers even under a spawn start method.  If the parent has
    already published a solve (header generation > 0) the worker syncs
    eagerly, moving blob unpickling and artifact pre-warming off the
    first chunk's critical path.
    """
    global _SHM_WORKER
    if decide is not None:
        from repro.core.vector import set_decide_mode

        set_decide_mode(decide)
    if artifacts is not None:
        from repro.artifacts.store import set_artifacts_mode

        set_artifacts_mode(artifacts)
    _SHM_WORKER = _ShmWorkerState(name)
    atexit.register(_shm_worker_close)
    generation = int(_SHM_WORKER.attached.views.header[H_GENERATION])
    if generation > 0:
        _SHM_WORKER.sync(generation)


def _run_warm_program(
    state: _ShmWorkerState,
    descriptor: ChunkDescriptor,
    payloads: Sequence[CellPayload],
    shard: Optional["ShardRecorder"] = None,
) -> Tuple[List[List[object]], bool]:
    """Vector-path chunk execution with the warm per-chunk program cache.

    First visit of a ``(class, start, stop)`` chunk lowers and caches a
    ClassProgram; later visits only refresh its pins and ledger values
    in place (:func:`~repro.core.vector.refresh_program`).  Any failure
    — structural mismatch, non-vectorizable shape — drops the cache
    entry and falls back to the scalar per-cell loop, which rebuilds
    from the payloads and therefore cannot see partial mutations.  The
    fallback is a designed correctness net, but it is never silent: the
    triggering error is counted in ``STATS.vector_fallbacks`` and
    emitted as a ``worker/vector_fallback`` shard event when tracing.
    """
    from repro.core import vector
    from repro.probability.engine import STATS

    key = (descriptor.class_index, descriptor.start, descriptor.stop)
    program = state.programs.get(key)
    try:
        if program is not None:
            vector.refresh_program(program, payloads)
            return vector.run_program(program), True
        program = vector.program_from_payloads(list(payloads))
        results = vector.run_program(program)
        state.programs[key] = program
        return results, False
    except Exception as error:
        STATS.vector_fallbacks += 1
        state.programs.pop(key, None)
        if shard is not None:
            shard.event(
                "worker",
                "vector_fallback",
                class_index=descriptor.class_index,
                start=descriptor.start,
                stop=descriptor.stop,
                error=repr(error),
            )
        return [execute_cell(payload) for payload in payloads], False


def execute_chunk_shm(
    descriptor: ChunkDescriptor,
    fault: Optional[WorkerFault] = None,
    trace: Optional[TraceContext] = None,
    decide: Optional[str] = None,
    artifacts: Optional[str] = None,
) -> ShmChunkAck:
    """Worker entry point: validate disjointness, then run the chunk.

    Reads its inputs from the attached segment and writes its choices
    into the shared result region.

    The read-set check is the schedule-bug tripwire: cells sharing an
    event in one class means the plan (or the coloring underneath it)
    is broken, and silently replaying them against stale pins would
    corrupt the phi ledger — raising is the only safe response.

    ``fault`` is the deterministic fault-injection hook: when the
    dispatching scheduler's :class:`~repro.faults.FaultPlan` selects this
    chunk, the injected failure executes *here*, in the worker, so the
    parent-side recovery path is exercised against real process death,
    real elapsed deadlines and real malformed replies.  A ``garble``
    fault manifests as a short ``counts`` tuple (the last cell's final
    row is never accounted for), which the parent rejects before
    decoding anything.

    ``trace`` opts the worker into the cross-process trace: a
    :class:`~repro.obs.shard.ShardRecorder` times validation and the
    chunk's decide pass, announces injected faults, and the buffered
    records return piggybacked on the :class:`ShmChunkAck` (with the
    shard file as the crash-survivable fallback).

    ``decide`` and ``artifacts`` pin the worker's decide and artifact
    planes to the parent's, so a parent-side
    :func:`~repro.core.vector.set_decide_mode` — e.g. a test pinning the
    scalar oracle — governs the workers too, not just the inherited
    environment.
    """
    if decide is not None:
        from repro.core.vector import set_decide_mode

        set_decide_mode(decide)
    if artifacts is not None:
        from repro.artifacts.store import set_artifacts_mode

        set_artifacts_mode(artifacts)
    state = _SHM_WORKER
    if state is None:
        raise SchedulerProtocolError(
            "shm worker: received a chunk descriptor but no segment is "
            "attached — the pool was started without _shm_worker_init"
        )
    shard = ShardRecorder(trace) if trace is not None else None
    if shard is not None:
        shard.event(
            "worker",
            "worker_start",
            pid=os.getpid(),
            cells=descriptor.stop - descriptor.start,
            attempt=trace.attempt,
        )
    state.sync(descriptor.generation)
    views = state.attached.views
    static = state.static
    if not 0 <= descriptor.class_index < len(static.classes):
        raise SchedulerProtocolError(
            f"shm worker: descriptor names class {descriptor.class_index} "
            f"of a {len(static.classes)}-class plan"
        )
    class_cells = static.classes[descriptor.class_index]
    pins_view = views.pins
    phi = views.phi
    cells = []
    payloads: List[CellPayload] = []
    for position in range(descriptor.start, descriptor.stop):
        cell_id = int(views.roster[position])
        if not 0 <= cell_id < len(class_cells) or class_cells[cell_id] is None:
            raise SchedulerProtocolError(
                f"shm worker: roster position {position} names "
                f"non-dispatchable cell {cell_id} of class "
                f"{descriptor.class_index}"
            )
        scell = class_cells[cell_id]
        ops = state.ops_cache.get((descriptor.class_index, cell_id))
        if ops is None:
            ops = tuple(
                OpPayload(variable=op.variable, event_names=op.event_names)
                for op in scell.ops
            )
            state.ops_cache[(descriptor.class_index, cell_id)] = ops
        events = tuple(
            EventPayload(
                name=event.name,
                kernel=event.kernel,
                scope_names=event.scope_names,
                pins=tuple(
                    int(pin)
                    for pin in pins_view[event.event_id, : len(event.scope_names)]
                ),
            )
            for event in scell.events
        )
        ledger = tuple(
            (
                frozenset(names),
                tuple(
                    (name, float(phi[slot]))
                    for name, slot in zip(names, slots)
                ),
            )
            for names, slots in scell.ledger
        )
        cells.append(scell)
        payloads.append(
            CellPayload(
                owner=scell.owner,
                kind=static.kind,
                ops=ops,
                events=events,
                ledger=ledger,
            )
        )
    if shard is not None:
        with shard.span("worker", "validate", cells=len(payloads)):
            _validate_chunk_disjoint(payloads)
    else:
        _validate_chunk_disjoint(payloads)
    if fault is not None and fault.kind == "crash":
        if shard is not None:
            shard.event("worker", "fault_injected", **fault.as_payload())
        os._exit(13)
    from repro.core.vector import vector_enabled

    results: List[List[object]] = []
    warm = False
    with profiled(shard, "worker", trace.profile if trace else None,
                  name="chunk"):
        if vector_enabled() and payloads:
            num_ops = sum(len(payload.ops) for payload in payloads)
            if shard is not None:
                with shard.span(
                    "worker", "decide_class",
                    cells=len(payloads), ops=num_ops,
                ):
                    results, warm = _run_warm_program(
                        state, descriptor, payloads, shard
                    )
                shard.count("worker", "cells", len(payloads))
                shard.count("worker", "ops", num_ops)
            else:
                results, warm = _run_warm_program(state, descriptor, payloads)
        else:
            for payload in payloads:
                if shard is not None:
                    with shard.span(
                        "worker", "decide",
                        cell=repr(payload.owner), ops=len(payload.ops),
                    ):
                        results.append(execute_cell(payload))
                    shard.count("worker", "cells")
                    shard.count("worker", "ops", len(payload.ops))
                else:
                    results.append(execute_cell(payload))
    results = _apply_worker_fault(fault, results, shard)
    result_rows = views.results
    counts: List[int] = []
    for scell, choices in zip(cells, results):
        for position, choice in enumerate(choices):
            variable = scell.ops[position].variable
            values = [value for value, _prob in variable.support_items()]
            encode_choice(
                result_rows[scell.op_offset + position],
                choice,
                values.index(choice.value),
            )
        counts.append(len(choices))
    return ShmChunkAck(
        counts=tuple(counts),
        warm=warm,
        records=shard.drain() if shard is not None else [],
    )
