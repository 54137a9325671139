"""The process-pool worker entry point of the shared-memory backend.

:class:`~repro.runtime.schedulers.ProcessScheduler` cannot ship the
fixers to workers: a :class:`~repro.probability.BadEvent` closes over an
arbitrary predicate.  It does not need to.  A color class's decisions
read only the compiled kernels, the pins of the events they touch and a
slice of the bookkeeping ledger, and the vector decide plane already
lowers exactly that into template sections
(:mod:`repro.core.vector`).  The parent publishes the built
:class:`~repro.probability.engine.KernelStack` plus one section per
dispatchable chunk once per solve into the shared segment
(:mod:`repro.runtime.shm`); per chunk, the worker copies the section's
pins rows and ledger slots from the parent-written regions into its
chunk-private output rows, runs the section through
:func:`repro.core.vector.execute_section` — the serial vector path's
own wave executor — and writes its choices into the shared result
region.  The parent commits them in deterministic plan order.

Bit-identity argument: the worker executes the very section the serial
scheduler would lower for those cells, against the same pins and
ledger values (copied as exact int64/float64), through the same
``_run_twave`` — so every worker decision equals the decision the
parent would have made at the same point of the serial order.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.vector import TOP_VALUES, execute_section
from repro.errors import SchedulerProtocolError, SimulationError
from repro.faults.plan import WorkerFault
from repro.obs.profile import profiled
from repro.obs.shard import ShardRecorder, TraceContext
from repro.probability.engine import _numpy
from repro.runtime.shm import (
    H_GENERATION,
    AttachedSegment,
    ChunkDescriptor,
    encode_choice,
)


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


def _validate_chunk_disjoint(section) -> None:
    """Raise if two cells of one chunk read the same pins row.

    A section's queries name, per wave, the pins row (event) each lane
    reads; lanes of different cells must never share one.
    """
    np = _numpy()
    rows = []
    cells = []
    for wave in section.waves:
        rows.append(wave.q_event)
        cells.append(np.asarray(wave.cell_of, dtype=np.int64)[wave.q_op])
    if not rows:
        return
    rows = np.concatenate(rows)
    cells = np.concatenate(cells)
    order = np.lexsort((cells, rows))
    rows = rows[order]
    cells = cells[order]
    clash = (rows[1:] == rows[:-1]) & (cells[1:] != cells[:-1])
    if clash.any():
        names = [name for wave in section.waves for name in wave.q_names]
        shared = {repr(names[index]) for index in order[1:][clash]}
        raise SimulationError(
            f"worker chunk: events {sorted(shared)} are read by two "
            f"cells of one class"
        )


# --------------------------------------------------------------------------
# Shared-memory worker
#
# The pool's initializer attaches the parent's SharedInstanceSegment once
# per worker process; thereafter each task is a compact fixed-width
# ChunkDescriptor.  The static part of a solve — the kernel stack and the
# chunks' template sections — unpickles once per broadcast from the
# segment blob; per chunk the worker copies the section's pins rows and
# ledger slots, runs its waves, and writes its choices into the shared
# result region instead of pickling them back.


@dataclass
class ShmChunkAck:
    """A shm chunk's reply: per-cell result counts, not the results.

    The decisions themselves live in the segment's result region; the
    parent validates ``counts`` against the chunk's op counts (the garble
    tripwire — a truncated write shows up as a short count) before
    decoding a single row.  ``warm`` reports whether the worker served
    the chunk without re-reading the segment blob — the parent
    aggregates it into the ``worker_warm_hits`` metric.
    """

    counts: Tuple[int, ...]
    warm: bool
    records: List[Dict[str, object]] = field(default_factory=list)


class _ShmWorkerState:
    """Per-process warm state: the attached segment and its worker plan."""

    def __init__(self, name: str) -> None:
        self.attached = AttachedSegment(name)
        self.generation = -1
        self.plan = None

    def sync(self, generation: int) -> bool:
        """Adopt the segment's published solve; ``True`` if already held."""
        if self.generation == generation:
            return True
        header_generation = int(self.attached.views.header[H_GENERATION])
        if header_generation != generation:
            raise SchedulerProtocolError(
                f"shm worker: descriptor generation {generation} does not "
                f"match segment generation {header_generation} — the parent "
                f"republished mid-dispatch"
            )
        self.plan = pickle.loads(self.attached.read_blob())
        self.generation = generation
        return False


_SHM_WORKER: Optional[_ShmWorkerState] = None


def _shm_worker_close() -> None:
    """atexit hook: detach the worker's segment view (never unlinks)."""
    global _SHM_WORKER
    state, _SHM_WORKER = _SHM_WORKER, None
    if state is not None:
        state.attached.close()


def _shm_worker_init(name: str) -> None:
    """Pool initializer: attach the segment.

    Runs once per worker process.  If the parent has already published
    a solve (header generation > 0) the worker syncs eagerly, moving
    blob unpickling off the first chunk's critical path.
    """
    global _SHM_WORKER
    _SHM_WORKER = _ShmWorkerState(name)
    atexit.register(_shm_worker_close)
    generation = int(_SHM_WORKER.attached.views.header[H_GENERATION])
    if generation > 0:
        _SHM_WORKER.sync(generation)


def _decide_chunk(views, plan, section) -> List[List[object]]:
    """Run one chunk section on its private rows of the output regions.

    The parent-written ``pins``/``phi`` regions are only read, so a
    crashed or garbled attempt never dirties what a retry reads; the
    chunk's rows and slots are disjoint from every other chunk's.
    """
    width = plan.width
    pins = views.pins_out[:, :width]
    phi = views.phi_out
    rows = section.read_rows
    slots = section.slot_list
    pins[rows] = views.pins[rows, :width]
    phi[slots] = views.phi[slots]
    return execute_section(plan.stack, pins, phi, section, plan.max_values)


def execute_chunk_shm(
    descriptor: ChunkDescriptor,
    fault: Optional[WorkerFault] = None,
    trace: Optional[TraceContext] = None,
) -> ShmChunkAck:
    """Worker entry point: validate disjointness, then run the chunk.

    Reads its inputs from the attached segment and writes its choices
    into the shared result region.

    The read-set check is the schedule-bug tripwire: cells sharing an
    event in one class means the plan (or the coloring underneath it)
    is broken, and silently deciding them against stale pins would
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
    """
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
    warm = state.sync(descriptor.generation)
    views = state.attached.views
    plan = state.plan
    key = (descriptor.class_index, descriptor.start, descriptor.stop)
    entry = plan.chunks.get(key)
    if entry is None:
        raise SchedulerProtocolError(
            f"shm worker: descriptor names cells "
            f"[{descriptor.start}, {descriptor.stop}) of class "
            f"{descriptor.class_index}, which is not a dispatchable chunk"
        )
    section, op_offset = entry
    if shard is not None:
        with shard.span("worker", "validate", cells=len(section.cells)):
            _validate_chunk_disjoint(section)
    else:
        _validate_chunk_disjoint(section)
    if fault is not None and fault.kind == "crash":
        if shard is not None:
            shard.event("worker", "fault_injected", **fault.as_payload())
        os._exit(13)
    with profiled(shard, "worker", trace.profile if trace else None,
                  name="chunk"):
        if shard is not None:
            with shard.span(
                "worker", "decide_class",
                cells=len(section.cells), ops=section.num_ops,
            ):
                results = _decide_chunk(views, plan, section)
            shard.count("worker", "cells", len(section.cells))
            shard.count("worker", "ops", section.num_ops)
        else:
            results = _decide_chunk(views, plan, section)
    results = _apply_worker_fault(fault, results, shard)
    result_rows = views.results
    counts: List[int] = []
    row = op_offset
    for (_owner, ops), choices in zip(section.cells, results):
        for op, choice in zip(ops, choices):
            encode_choice(
                result_rows[row], choice, op[TOP_VALUES].index(choice.value)
            )
            row += 1
        row += len(ops) - len(choices)
        counts.append(len(choices))
    return ShmChunkAck(
        counts=tuple(counts),
        warm=warm,
        records=shard.drain() if shard is not None else [],
    )
