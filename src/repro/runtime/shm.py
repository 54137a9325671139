"""Zero-copy shared-memory IPC for the process execution backend.

Almost everything a worker needs to decide a cell — kernels, variables,
scope tuples, ledger topology — is static for the whole solve, so none
of it should cross the process boundary per chunk.  This module keeps
it in one per-solve **SharedInstanceSegment**
(`multiprocessing.shared_memory`):

* the *static* structure — cells, ops, variables, compiled kernels,
  scope names, ledger slot ids — is pickled **once** per solve into the
  segment's blob region and unpickled **once** per worker process;
* the *dynamic* state — the pins matrix and the flat float64 phi
  ledger of the vector plane — lives in preallocated numpy regions the
  parent refreshes in place before each class;
* workers thereafter receive only a compact fixed-width
  :class:`ChunkDescriptor` (generation, class id, roster range,
  attempt) and write their decisions as fixed-width float64 records
  into a preallocated shared result region, so the parent's merge is an
  index copy, not an unpickle.

Bit-identity with the serial oracle holds because every number
crossing the segment is an exact float64/int64 round-trip and the
parent reconstructs the same frozen choice dataclasses the worker's
selection rules returned.

Segment layout (all regions 8-byte aligned, capacities in the header)::

    [ header   ] 16 x int64: magic, generation, blob length, capacities
    [ blob     ] pickled ShmStaticPlan (static structure, one per solve)
    [ pins     ] int64  [num_events, pin_width]   refreshed per class
    [ phi      ] float64[ledger_size]             refreshed per class
    [ roster   ] int64  [max_cells]               dispatchable cell ids
    [ results  ] float64[max_ops, record_width]   worker decisions

The parent owns the segment: it creates, broadcasts and ultimately
``close()``/``unlink()``\\ s it (a module-level registry plus ``atexit``
guarantee no leaked ``/dev/shm`` entries even on abandoned schedulers).
Workers only ever attach and read/write in place; a crashed or hung
worker is terminated by the scheduler's fault machinery and its mapping
dies with the process, so retries simply re-attach.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ObsError, ReproError, SchedulerProtocolError
from repro.obs.recorder import active as _obs_active
from repro.probability.engine import _numpy

#: Error types expected from best-effort teardown of pools, worker
#: processes and shared-memory segments: OS/IPC failures from closing
#: half-dead resources.  Cleanup sites suppress exactly these (reported
#: via :func:`report_cleanup_error`); anything else — including
#: ``KeyboardInterrupt``/``SystemExit`` — propagates.
CLEANUP_ERRORS = (OSError, RuntimeError, ValueError, BufferError, EOFError)


def report_cleanup_error(site: str, error: BaseException) -> None:
    """Surface a suppressed cleanup failure as an obs event.

    Best-effort teardown must not mask failures invisibly: every
    suppressed exception is emitted as a ``runtime/cleanup_error``
    event naming the site, when a recorder is live.
    """
    recorder = _obs_active()
    if recorder is None:
        return
    try:
        recorder.event(
            "runtime", "cleanup_error", site=site, error=repr(error)
        )
    except ObsError:
        pass  # recorder closed mid-teardown (atexit ordering)

# ----------------------------------------------------------------------
# Segment layout
# ----------------------------------------------------------------------

#: ``b"rpSHM1"`` as an int64 — the first header word of every segment.
SEGMENT_MAGIC = 0x72_70_53_48_4D_31

#: Number of int64 header slots (fields below, rest reserved).
HEADER_SLOTS = 16

H_MAGIC = 0
H_GENERATION = 1
H_BLOB_LENGTH = 2
H_NUM_EVENTS = 3
H_PIN_WIDTH = 4
H_LEDGER_SIZE = 5
H_MAX_CELLS = 6
H_MAX_OPS = 7
H_RECORD_WIDTH = 8
H_BLOB_CAPACITY = 9

#: Result-record tags (row[0]) naming the choice dataclass encoded.
TAG_RANK1 = 1
TAG_RANK2 = 2
TAG_RANK3 = 3
TAG_RANKR = 4

#: A rank-3 record needs 16 floats (tag, position, good count, 3
#: increases, 3 triple entries, 6 decomposition witnesses, margin).
MIN_RECORD_WIDTH = 16


def _align8(size: int) -> int:
    return (int(size) + 7) & ~7


def record_width_for(max_rank: int) -> int:
    """Floats per result record: rank-3 layout or a rank-r slab."""
    return max(MIN_RECORD_WIDTH, 4 + 2 * int(max_rank))


@dataclass(frozen=True)
class SegmentLayout:
    """Region capacities and byte offsets of one shared segment.

    Capacities are fixed for the segment's lifetime (they define the
    offsets); a re-broadcast over the same segment may only shrink-fit.
    Both sides derive the same layout: the parent from the lowered
    solve, workers from the header capacities.
    """

    num_events: int
    pin_width: int
    ledger_size: int
    max_cells: int
    max_ops: int
    record_width: int
    blob_capacity: int

    @property
    def blob_offset(self) -> int:
        return HEADER_SLOTS * 8

    @property
    def pins_offset(self) -> int:
        return self.blob_offset + _align8(self.blob_capacity)

    @property
    def phi_offset(self) -> int:
        return self.pins_offset + self.num_events * self.pin_width * 8

    @property
    def roster_offset(self) -> int:
        return self.phi_offset + self.ledger_size * 8

    @property
    def results_offset(self) -> int:
        return self.roster_offset + self.max_cells * 8

    @property
    def total_bytes(self) -> int:
        return self.results_offset + self.max_ops * self.record_width * 8


class SegmentViews:
    """Numpy views over one mapped segment, shared by both sides."""

    __slots__ = ("header", "blob", "pins", "phi", "roster", "results")

    def __init__(self, buf, layout: SegmentLayout) -> None:
        np = _numpy()
        self.header = np.frombuffer(
            buf, dtype=np.int64, count=HEADER_SLOTS, offset=0
        )
        self.blob = np.frombuffer(
            buf, dtype=np.uint8, count=layout.blob_capacity,
            offset=layout.blob_offset,
        )
        self.pins = np.frombuffer(
            buf, dtype=np.int64,
            count=layout.num_events * layout.pin_width,
            offset=layout.pins_offset,
        ).reshape(layout.num_events, layout.pin_width)
        self.phi = np.frombuffer(
            buf, dtype=np.float64, count=layout.ledger_size,
            offset=layout.phi_offset,
        )
        self.roster = np.frombuffer(
            buf, dtype=np.int64, count=layout.max_cells,
            offset=layout.roster_offset,
        )
        self.results = np.frombuffer(
            buf, dtype=np.float64,
            count=layout.max_ops * layout.record_width,
            offset=layout.results_offset,
        ).reshape(layout.max_ops, layout.record_width)

    def release(self) -> None:
        """Drop every array so the underlying buffer can be closed."""
        for name in self.__slots__:
            setattr(self, name, None)


# ----------------------------------------------------------------------
# Static structure (the once-per-solve pickled blob)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShmEvent:
    """One event of a cell: kernel + scope, pins read from the segment."""

    name: Hashable
    kernel: object
    scope_names: Tuple[Hashable, ...]
    #: Row of the shared pins matrix holding this event's live pins.
    event_id: int


@dataclass(frozen=True)
class ShmOp:
    """One fixing: the variable object plus its event names in order."""

    variable: object
    event_names: Tuple[Hashable, ...]


@dataclass(frozen=True)
class ShmCell:
    """A dispatch-capable cell's static structure.

    ``ledger`` lists the cell's bookkeeping reads in first-touch order
    as ``(names, slots)`` pairs — the worker zips each names tuple with
    the float64 phi values at ``slots`` to rebuild the cell's exact
    ledger slice.  ``op_offset`` is the cell's first row in the shared
    result region (class-local).
    """

    owner: Hashable
    ops: Tuple[ShmOp, ...]
    events: Tuple[ShmEvent, ...]
    ledger: Tuple[Tuple[Tuple[Hashable, ...], Tuple[int, ...]], ...]
    op_offset: int


@dataclass(frozen=True)
class ShmStaticPlan:
    """The whole solve's static structure, pickled once per broadcast.

    ``classes[i][cell_id]`` is ``None`` for cells that can never be
    dispatched (an event without a compiled kernel) — they execute in
    the parent and never appear in a roster.
    """

    kind: str
    classes: Tuple[Tuple[Optional[ShmCell], ...], ...]


@dataclass(frozen=True)
class ChunkDescriptor:
    """The fixed-width wire format of one dispatched chunk.

    Five small ints are the whole per-chunk message: workers resolve
    everything else from their attached segment (roster range
    ``[start, stop)`` into the current class's roster region).
    """

    generation: int
    class_index: int
    start: int
    stop: int
    attempt: int


# ----------------------------------------------------------------------
# Result-record codec
# ----------------------------------------------------------------------

def encode_choice(row, choice, position: int) -> None:
    """Write one decision into a float64 result row (exact round-trip)."""
    from repro.core.selection import (
        Rank1Choice,
        Rank2Choice,
        Rank3Choice,
        RankRChoice,
    )

    row[:] = 0.0
    row[1] = position
    row[2] = choice.num_good_values
    if isinstance(choice, Rank1Choice):
        row[0] = TAG_RANK1
        row[3] = choice.increase
        row[4] = choice.slack
    elif isinstance(choice, Rank2Choice):
        row[0] = TAG_RANK2
        row[3:5] = choice.increases
        row[5:7] = choice.new_weights
        row[7] = choice.slack
    elif isinstance(choice, Rank3Choice):
        row[0] = TAG_RANK3
        row[3:6] = choice.increases
        row[6:9] = choice.triple
        decomposition = choice.decomposition
        row[9] = decomposition.a1
        row[10] = decomposition.a2
        row[11] = decomposition.b1
        row[12] = decomposition.b3
        row[13] = decomposition.c2
        row[14] = decomposition.c3
        row[15] = choice.margin
    elif isinstance(choice, RankRChoice):
        row[0] = TAG_RANKR
        rank = len(choice.increases)
        row[3:3 + rank] = choice.increases
        row[3 + rank:3 + 2 * rank] = choice.new_weights
        row[3 + 2 * rank] = choice.slack
    else:
        raise SchedulerProtocolError(
            f"cannot encode choice of type {type(choice).__name__} into "
            f"a shared result record"
        )


def decode_choice(row, values: Tuple[Hashable, ...], rank: int):
    """Rebuild the frozen choice dataclass from one result row."""
    from repro.core.selection import (
        Rank1Choice,
        Rank2Choice,
        Rank3Choice,
        RankRChoice,
    )
    from repro.geometry.representable import TripleDecomposition

    tag = int(row[0])
    position = int(row[1])
    if not 0 <= position < len(values):
        raise SchedulerProtocolError(
            f"shared result record names support position {position} of "
            f"{len(values)} values"
        )
    value = values[position]
    good = int(row[2])
    if tag == TAG_RANK1:
        return Rank1Choice(
            value=value,
            increase=float(row[3]),
            slack=float(row[4]),
            num_good_values=good,
        )
    if tag == TAG_RANK2:
        return Rank2Choice(
            value=value,
            increases=(float(row[3]), float(row[4])),
            new_weights=(float(row[5]), float(row[6])),
            slack=float(row[7]),
            num_good_values=good,
        )
    if tag == TAG_RANK3:
        return Rank3Choice(
            value=value,
            increases=(float(row[3]), float(row[4]), float(row[5])),
            triple=(float(row[6]), float(row[7]), float(row[8])),
            decomposition=TripleDecomposition(
                a1=float(row[9]),
                a2=float(row[10]),
                b1=float(row[11]),
                b3=float(row[12]),
                c2=float(row[13]),
                c3=float(row[14]),
            ),
            margin=float(row[15]),
            num_good_values=good,
        )
    if tag == TAG_RANKR:
        return RankRChoice(
            value=value,
            increases=tuple(float(x) for x in row[3:3 + rank]),
            new_weights=tuple(
                float(x) for x in row[3 + rank:3 + 2 * rank]
            ),
            slack=float(row[3 + 2 * rank]),
            num_good_values=good,
        )
    raise SchedulerProtocolError(
        f"shared result record carries unknown tag {tag} (unwritten "
        f"row?)"
    )


# ----------------------------------------------------------------------
# Lowering (parent side, once per (plan, instance, kind))
# ----------------------------------------------------------------------

@dataclass
class _ParentCell:
    """Parent-side refresh/decode metadata for one cell.

    ``steps`` is the cell's refresh walk — per op, first the scope pins
    of the op's not-yet-seen events, then the ledger fills — so the
    fixer-side side effects (``local_weights`` installing defaults)
    land in a fixed first-touch order.  ``static_ok`` is ``False`` for
    cells that can never dispatch; their truncated steps are still
    replayed so those side effects do not depend on dispatchability.
    """

    #: Per op: ``(new_events, fills)`` where ``new_events`` entries are
    #: ``(event, event_id, scope_len)`` and ``fills`` entries are
    #: ``("w", events, names, slots)`` or ``("p", u, v, slot_u, slot_v)``.
    steps: Tuple[tuple, ...]
    #: Per op: ``(values, rank)`` for result decoding.
    op_meta: Tuple[Tuple[tuple, int], ...]
    op_offset: int
    static_ok: bool


@dataclass
class LoweredSolve:
    """Everything one broadcast needs: blob, parent meta, capacities."""

    kind: str
    blob: bytes
    parent_classes: List[List[_ParentCell]]
    num_events: int
    pin_width: int
    ledger_size: int
    max_cells: int
    max_ops: int
    record_width: int


def lower_solve(kind: str, plan, instance) -> LoweredSolve:
    """Lower a fix plan + instance into the shared-segment structure.

    Walks every cell's ops in plan order, gating on compiled kernels
    and recording the ledger reads in first-touch order, and splits the
    result into the static pickled-once blob and the per-class refresh
    program the parent replays against the live fixer.
    """
    event_ids: Dict[Hashable, int] = {}
    slot_registry: Dict[frozenset, Dict[Hashable, int]] = {}
    next_slot = 0
    pin_width = 1
    max_rank = 1
    max_cells = 1
    max_ops = 1
    static_classes: List[Tuple[Optional[ShmCell], ...]] = []
    parent_classes: List[List[_ParentCell]] = []
    for color_class in plan.classes:
        static_cells: List[Optional[ShmCell]] = []
        parent_cells: List[_ParentCell] = []
        op_offset = 0
        for cell in color_class.cells:
            seen: set = set()
            cell_keys: set = set()
            events_static: List[ShmEvent] = []
            ops_static: List[ShmOp] = []
            ledger_static: List[tuple] = []
            steps: List[tuple] = []
            op_meta: List[tuple] = []
            ok = True
            for op in cell.ops:
                variable = instance.variable(op.variable)
                events = instance.events_of_variable(op.variable)
                new_events: List[tuple] = []
                for event in events:
                    if event.name in seen:
                        continue
                    seen.add(event.name)
                    if event.compiled_kernel() is None:
                        ok = False
                        break
                    eid = event_ids.get(event.name)
                    if eid is None:
                        eid = len(event_ids)
                        event_ids[event.name] = eid
                    scope = tuple(event.scope_names)
                    events_static.append(
                        ShmEvent(event.name, event.compiled_kernel(),
                                 scope, eid)
                    )
                    new_events.append((event, eid, len(scope)))
                    if len(scope) > pin_width:
                        pin_width = len(scope)
                if not ok:
                    # Truncate at the first kernel-less event: earlier
                    # ops' steps stay (side effects), the rest of the
                    # cell is never walked.
                    if new_events:
                        steps.append((tuple(new_events), ()))
                    break
                names = tuple(event.name for event in events)
                rank = len(names)
                if rank > max_rank:
                    max_rank = rank
                values = tuple(
                    value for value, _prob in variable.support_items()
                )
                ops_static.append(ShmOp(variable, names))
                op_meta.append((values, rank))
                fills: List[tuple] = []
                if kind == "naive" or len(events) == 2:
                    key = frozenset(names)
                    if key not in cell_keys:
                        cell_keys.add(key)
                        by_name = slot_registry.get(key)
                        if by_name is None:
                            by_name = {}
                            for name in names:
                                by_name[name] = next_slot
                                next_slot += 1
                            slot_registry[key] = by_name
                        slots = tuple(by_name[name] for name in names)
                        ledger_static.append((names, slots))
                        fills.append(("w", tuple(events), names, slots))
                elif len(events) == 3:
                    for u, v in (
                        (names[0], names[1]),
                        (names[0], names[2]),
                        (names[1], names[2]),
                    ):
                        key = frozenset((u, v))
                        if key in cell_keys:
                            continue
                        cell_keys.add(key)
                        by_name = slot_registry.get(key)
                        if by_name is None:
                            by_name = {u: next_slot, v: next_slot + 1}
                            next_slot += 2
                            slot_registry[key] = by_name
                        slots = (by_name[u], by_name[v])
                        ledger_static.append(((u, v), slots))
                        fills.append(("p", u, v, slots[0], slots[1]))
                steps.append((tuple(new_events), tuple(fills)))
            parent_cells.append(
                _ParentCell(
                    steps=tuple(steps),
                    op_meta=tuple(op_meta) if ok else (),
                    op_offset=op_offset,
                    static_ok=ok,
                )
            )
            static_cells.append(
                ShmCell(
                    owner=cell.owner,
                    ops=tuple(ops_static),
                    events=tuple(events_static),
                    ledger=tuple(ledger_static),
                    op_offset=op_offset,
                )
                if ok
                else None
            )
            op_offset += len(cell.ops)
        if len(color_class.cells) > max_cells:
            max_cells = len(color_class.cells)
        if op_offset > max_ops:
            max_ops = op_offset
        static_classes.append(tuple(static_cells))
        parent_classes.append(parent_cells)
    blob = pickle.dumps(
        ShmStaticPlan(kind=kind, classes=tuple(static_classes)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return LoweredSolve(
        kind=kind,
        blob=blob,
        parent_classes=parent_classes,
        num_events=max(len(event_ids), 1),
        pin_width=pin_width,
        ledger_size=max(next_slot, 1),
        max_cells=max_cells,
        max_ops=max_ops,
        record_width=record_width_for(max_rank),
    )


# ----------------------------------------------------------------------
# Parent-owned segment + lifecycle registry
# ----------------------------------------------------------------------

_SEGMENT_PREFIX = "repro_shm_"
_SEGMENT_COUNTER = itertools.count()

#: Every live (created, not yet unlinked) segment of this process.
#: ``atexit`` sweeps it so abandoned schedulers can never leak
#: ``/dev/shm`` entries past interpreter exit.
_LIVE_SEGMENTS: Dict[str, "SharedInstanceSegment"] = {}
_ATEXIT_ARMED = False


def live_segment_names() -> Tuple[str, ...]:
    """Names of this process's live shared segments (for leak tests)."""
    return tuple(sorted(_LIVE_SEGMENTS))


def _cleanup_live_segments() -> None:
    for segment in list(_LIVE_SEGMENTS.values()):
        try:
            segment.close()
        except CLEANUP_ERRORS as error:
            report_cleanup_error("atexit_segment_close", error)


def _arm_atexit() -> None:
    global _ATEXIT_ARMED
    if not _ATEXIT_ARMED:
        atexit.register(_cleanup_live_segments)
        _ATEXIT_ARMED = True


class SharedInstanceSegment:
    """The parent's owned mapping: create, broadcast, refresh, unlink."""

    def __init__(self, layout: SegmentLayout) -> None:
        _arm_atexit()
        self.layout = layout
        self.name = f"{_SEGMENT_PREFIX}{os.getpid()}_{next(_SEGMENT_COUNTER)}"
        self._shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=layout.total_bytes
        )
        self.views = SegmentViews(self._shm.buf, layout)
        header = self.views.header
        header[:] = 0
        header[H_MAGIC] = SEGMENT_MAGIC
        header[H_NUM_EVENTS] = layout.num_events
        header[H_PIN_WIDTH] = layout.pin_width
        header[H_LEDGER_SIZE] = layout.ledger_size
        header[H_MAX_CELLS] = layout.max_cells
        header[H_MAX_OPS] = layout.max_ops
        header[H_RECORD_WIDTH] = layout.record_width
        header[H_BLOB_CAPACITY] = layout.blob_capacity
        self.closed = False
        _LIVE_SEGMENTS[self.name] = self

    def publish(self, blob: bytes, generation: int) -> None:
        """Write one solve's static blob and bump the generation."""
        np = _numpy()
        if len(blob) > self.layout.blob_capacity:
            raise ReproError(
                f"static blob of {len(blob)} bytes exceeds the segment's "
                f"{self.layout.blob_capacity}-byte blob region"
            )
        self.views.blob[:len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        self.views.header[H_BLOB_LENGTH] = len(blob)
        self.views.header[H_GENERATION] = generation

    def close(self) -> None:
        """Release the mapping and unlink the ``/dev/shm`` entry."""
        if self.closed:
            return
        self.closed = True
        _LIVE_SEGMENTS.pop(self.name, None)
        if self.views is not None:
            self.views.release()
            self.views = None
        try:
            self._shm.close()
        except BufferError:
            # A stray exported view keeps the local mapping alive; the
            # unlink below still removes the named entry, so nothing
            # leaks past process exit.
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


class AttachedSegment:
    """A worker's read/write view of an existing segment (never unlinks)."""

    def __init__(self, name: str) -> None:
        np = _numpy()
        self.name = name
        self._shm = shared_memory.SharedMemory(name=name)
        header = np.frombuffer(
            self._shm.buf, dtype=np.int64, count=HEADER_SLOTS
        )
        if int(header[H_MAGIC]) != SEGMENT_MAGIC:
            raise SchedulerProtocolError(
                f"shared segment {name!r} carries no repro header"
            )
        self.layout = SegmentLayout(
            num_events=int(header[H_NUM_EVENTS]),
            pin_width=int(header[H_PIN_WIDTH]),
            ledger_size=int(header[H_LEDGER_SIZE]),
            max_cells=int(header[H_MAX_CELLS]),
            max_ops=int(header[H_MAX_OPS]),
            record_width=int(header[H_RECORD_WIDTH]),
            blob_capacity=int(header[H_BLOB_CAPACITY]),
        )
        self.views = SegmentViews(self._shm.buf, self.layout)

    def read_blob(self) -> bytes:
        length = int(self.views.header[H_BLOB_LENGTH])
        return bytes(self.views.blob[:length])

    def close(self) -> None:
        if self.views is not None:
            self.views.release()
            self.views = None
        try:
            self._shm.close()
        except CLEANUP_ERRORS as error:
            report_cleanup_error("attached_segment_close", error)


# ----------------------------------------------------------------------
# Parent-side session: one scheduler's warm segment across solves
# ----------------------------------------------------------------------

class ShmSession:
    """A scheduler's shared-memory state, persistent across executes.

    ``ensure`` is the warm path: the same ``(plan, instance, kind)``
    triple reuses the published segment verbatim (no re-lowering, no
    broadcast); a different solve re-lowers, rewrites the blob in place
    when it fits (generation bump — warm workers re-read the blob but
    the pool survives), and only reallocates the segment when the new
    capacities outgrow the old ones.
    """

    def __init__(self) -> None:
        self.segment: Optional[SharedInstanceSegment] = None
        self.lowered: Optional[LoweredSolve] = None
        self.generation = 0
        self._kind: Optional[str] = None
        self._plan_ref = None
        self._instance_ref = None
        self._class_index: Dict[int, int] = {}

    def _is_current(self, kind: str, plan, instance) -> bool:
        if self.lowered is None or self._kind != kind:
            return False
        if self._plan_ref is None or self._instance_ref is None:
            return False
        return self._plan_ref() is plan and self._instance_ref() is instance

    def _fits(self, lowered: LoweredSolve) -> bool:
        layout = self.segment.layout
        return (
            lowered.num_events <= layout.num_events
            and lowered.pin_width <= layout.pin_width
            and lowered.ledger_size <= layout.ledger_size
            and lowered.max_cells <= layout.max_cells
            and lowered.max_ops <= layout.max_ops
            and lowered.record_width == layout.record_width
            and len(lowered.blob) <= layout.blob_capacity
        )

    def ensure(self, kind: str, plan, instance) -> str:
        """Publish the solve; returns ``reuse``/``broadcast``/``segment``.

        ``segment`` means a new segment name was allocated — the caller
        must rebuild its worker pool so initializers re-attach.

        Transactional against mid-broadcast rejection (the server's
        back-to-back-solves hazard): the session's generation and solve
        references only commit *after* ``publish`` succeeds.  A failed
        publish forgets the half-published solve, so a retried request
        re-lowers and republishes instead of taking the ``reuse`` fast
        path against a segment whose header generation never advanced
        — which warm workers would reject as a stale-generation
        protocol violation.  The ``reuse`` path double-checks the
        published header generation for the same reason.
        """
        if self._is_current(kind, plan, instance):
            segment = self.segment
            if (
                segment is not None
                and int(segment.views.header[H_GENERATION])
                == self.generation
            ):
                return "reuse"
            # Defensive: the session claims this solve is current but
            # the segment header disagrees — republish it.
        lowered = lower_solve(kind, plan, instance)
        generation = self.generation + 1
        outcome = "broadcast"
        try:
            if self.segment is not None and not self._fits(lowered):
                self.segment.close()
                self.segment = None
            if self.segment is None:
                self.segment = SharedInstanceSegment(
                    SegmentLayout(
                        num_events=lowered.num_events,
                        pin_width=lowered.pin_width,
                        ledger_size=lowered.ledger_size,
                        max_cells=lowered.max_cells,
                        max_ops=lowered.max_ops,
                        record_width=lowered.record_width,
                        blob_capacity=_align8(len(lowered.blob)),
                    )
                )
                outcome = "segment"
            self.segment.publish(lowered.blob, generation)
        except BaseException:
            self._forget()
            raise
        self.generation = generation
        self.lowered = lowered
        self._kind = kind
        try:
            self._plan_ref = weakref.ref(plan)
            self._instance_ref = weakref.ref(instance)
        except TypeError:
            self._plan_ref = lambda: plan
            self._instance_ref = lambda: instance
        self._class_index = {
            id(color_class): index
            for index, color_class in enumerate(plan.classes)
        }
        return outcome

    def _forget(self) -> None:
        """Drop the published-solve bookkeeping (not the segment).

        Called when a broadcast fails partway: whatever reached the
        segment is unpublished garbage, so the next ``ensure`` must
        miss ``_is_current`` and republish from scratch.
        """
        self.lowered = None
        self._kind = None
        self._plan_ref = None
        self._instance_ref = None
        self._class_index = {}

    def class_index(self, color_class) -> int:
        return self._class_index[id(color_class)]

    def refresh_class(self, fixer, class_index: int) -> Tuple[List[int], int]:
        """Write one class's live pins/phi/roster; returns (roster, bytes).

        Replays each cell's lowered walk against the live fixer —
        ``scope_pins`` calls, then ``local_weights``/``pstar`` reads, in
        first-touch order — writing into the shared regions.  A cell
        whose pins are unavailable aborts at that point and stays off
        the roster (it runs in the parent at merge time).
        """
        views = self.segment.views
        pins_view = views.pins
        phi = views.phi
        roster: List[int] = []
        written = 0
        for cell_id, pcell in enumerate(
            self.lowered.parent_classes[class_index]
        ):
            ok = pcell.static_ok
            for new_events, fills in pcell.steps:
                for event, eid, width in new_events:
                    pins = event.scope_pins(fixer.assignment)
                    if pins is None:
                        ok = False
                        break
                    pins_view[eid, :width] = pins
                    written += width * 8
                if not ok:
                    break
                for fill in fills:
                    if fill[0] == "w":
                        _tag, events, _names, slots = fill
                        weights = fixer.local_weights(events)
                        for slot, weight in zip(slots, weights):
                            phi[slot] = weight
                        written += len(slots) * 8
                    else:
                        _tag, u, v, slot_u, slot_v = fill
                        phi[slot_u] = fixer.pstar.value(u, v, u)
                        phi[slot_v] = fixer.pstar.value(u, v, v)
                        written += 16
            if ok:
                roster.append(cell_id)
        roster_view = views.roster
        for position, cell_id in enumerate(roster):
            roster_view[position] = cell_id
        written += len(roster) * 8
        return roster, written

    def decode_chunk(
        self, class_index: int, cell_ids: Sequence[int]
    ) -> List[Tuple[int, List[object]]]:
        """Rebuild the choices a worker wrote for one chunk's cells."""
        rows = self.segment.views.results
        parent_cells = self.lowered.parent_classes[class_index]
        decoded: List[Tuple[int, List[object]]] = []
        for cell_id in cell_ids:
            pcell = parent_cells[cell_id]
            choices = [
                decode_choice(
                    rows[pcell.op_offset + position], values, rank
                )
                for position, (values, rank) in enumerate(pcell.op_meta)
            ]
            decoded.append((cell_id, choices))
        return decoded

    def close(self) -> None:
        """Unlink the segment and drop the lowered solve (idempotent)."""
        if self.segment is not None:
            self.segment.close()
            self.segment = None
        self.lowered = None
        self._kind = None
        self._plan_ref = None
        self._instance_ref = None
        self._class_index = {}
