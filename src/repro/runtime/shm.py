"""Zero-copy shared-memory IPC for the process execution backend.

Almost everything a worker needs to decide a chunk of cells — the
stacked kernels and the chunk's lowered wave section — is static for
the whole solve, so none of it should cross the process boundary per
chunk.  This module keeps it in one per-solve **SharedInstanceSegment**
(`multiprocessing.shared_memory`):

* the *static* structure is the vector plane's own lowering: the
  parent lowers each dispatchable chunk into a section of the
  instance's :class:`~repro.core.vector._Template` (the same
  ``section_for`` path the serial scheduler uses), and the built
  :class:`~repro.probability.engine.KernelStack` plus those sections —
  no instance, no predicates — are pickled **once** per solve into the
  segment's blob region and unpickled **once** per worker process;
* the *dynamic* state — the pins matrix and the flat float64 phi
  ledger, in the template's row and slot layout — lives in
  preallocated numpy regions: before each class the parent copies the
  rows and slots the class's sections read from its run state (a numpy
  copy), and each worker decides its chunk in the chunk-private rows of
  the ``*_out`` regions, so the input regions a retry reads are never
  written by a worker;
* workers receive only a compact fixed-width :class:`ChunkDescriptor`
  (generation, class id, cell range, attempt) and write their
  decisions as fixed-width float64 records into a preallocated shared
  result region, so the parent's merge is an index copy, not an
  unpickle.

Bit-identity with the serial oracle holds because workers run the
serial vector path's own wave executor on the same sections, every
number crossing the segment is an exact float64/int64 round-trip, and
the parent reconstructs the same frozen choice dataclasses the
worker's selection rules returned.

Segment layout (all regions 8-byte aligned, capacities in the header)::

    [ header   ] 16 x int64: magic, generation, blob length, capacities
    [ blob     ] pickled WorkerPlan (stack + chunk sections, per solve)
    [ pins     ] int64  [num_events, pin_width]   parent-written per class
    [ phi      ] float64[ledger_size]             parent-written per class
    [ pins_out ] int64  [num_events, pin_width]   worker-written per chunk
    [ phi_out  ] float64[ledger_size]             worker-written per chunk
    [ results  ] float64[max_ops, record_width]   worker decisions

Capacities carry geometric headroom (each rounded up to a power of
two), so a stream of same-shape solves re-broadcasts into one segment
instead of reallocating it — and rebuilding the worker pool — per
solve.

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
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core import vector
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
H_MAX_OPS = 6
H_RECORD_WIDTH = 7
H_BLOB_CAPACITY = 8

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


def _headroom(need: int) -> int:
    """Geometric capacity for ``need`` entries: the next power of two."""
    return 1 << max(int(need) - 1, 0).bit_length()


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
    def pins_out_offset(self) -> int:
        return self.phi_offset + self.ledger_size * 8

    @property
    def phi_out_offset(self) -> int:
        return self.pins_out_offset + self.num_events * self.pin_width * 8

    @property
    def results_offset(self) -> int:
        return self.phi_out_offset + self.ledger_size * 8

    @property
    def total_bytes(self) -> int:
        return self.results_offset + self.max_ops * self.record_width * 8

    def fits(self, need: "SegmentLayout") -> bool:
        """Whether a solve needing ``need`` can publish into this layout."""
        return all(
            getattr(need, name) <= getattr(self, name)
            for name in self.__dataclass_fields__
        )

    def grown_for(self, need: "SegmentLayout") -> "SegmentLayout":
        """The layout to reallocate for ``need``: grow-only, with headroom."""
        return SegmentLayout(
            num_events=max(self.num_events, _headroom(need.num_events)),
            pin_width=max(self.pin_width, need.pin_width),
            ledger_size=max(self.ledger_size, _headroom(need.ledger_size)),
            max_ops=max(self.max_ops, _headroom(need.max_ops)),
            record_width=max(self.record_width, need.record_width),
            blob_capacity=max(
                self.blob_capacity, _headroom(need.blob_capacity)
            ),
        )


class SegmentViews:
    """Numpy views over one mapped segment, shared by both sides."""

    __slots__ = (
        "header", "blob", "pins", "phi", "pins_out", "phi_out", "results"
    )

    def __init__(self, buf, layout: SegmentLayout) -> None:
        np = _numpy()
        self.header = np.frombuffer(
            buf, dtype=np.int64, count=HEADER_SLOTS, offset=0
        )
        self.blob = np.frombuffer(
            buf, dtype=np.uint8, count=layout.blob_capacity,
            offset=layout.blob_offset,
        )
        pins_shape = (layout.num_events, layout.pin_width)
        self.pins = np.frombuffer(
            buf, dtype=np.int64,
            count=layout.num_events * layout.pin_width,
            offset=layout.pins_offset,
        ).reshape(pins_shape)
        self.phi = np.frombuffer(
            buf, dtype=np.float64, count=layout.ledger_size,
            offset=layout.phi_offset,
        )
        self.pins_out = np.frombuffer(
            buf, dtype=np.int64,
            count=layout.num_events * layout.pin_width,
            offset=layout.pins_out_offset,
        ).reshape(pins_shape)
        self.phi_out = np.frombuffer(
            buf, dtype=np.float64, count=layout.ledger_size,
            offset=layout.phi_out_offset,
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
class WorkerPlan:
    """The whole solve's static structure, pickled once per broadcast.

    ``chunks`` maps ``(class index, start, stop)`` — a dispatchable
    chunk's cell range — to its lowered template section and the
    class-local result row of its first op.  ``width`` is the pins
    column count ``stack`` reads.
    """

    stack: object
    width: int
    max_values: int
    chunks: Dict[Tuple[int, int, int], Tuple[object, int]]


@dataclass(frozen=True)
class ChunkDescriptor:
    """The fixed-width wire format of one dispatched chunk.

    Five small ints are the whole per-chunk message: workers resolve
    everything else from their attached segment (``[start, stop)`` is
    the chunk's cell range within its class).
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
# Chunk lowering (parent side, once per (plan, instance, kind))
# ----------------------------------------------------------------------

def chunk_ranges(count: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``count >= 1`` cells into at most ``workers`` ranges."""
    parts = min(max(workers, 1), count)
    size, remainder = divmod(count, parts)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for position in range(parts):
        stop = start + size + (1 if position < remainder else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass(frozen=True)
class ChunkPlan:
    """One dispatchable chunk: its cell range and lowered section."""

    start: int
    stop: int
    section: object
    #: Class-local result row of the chunk's first op.
    op_offset: int


@dataclass
class LoweredSolve:
    """Everything one broadcast needs: blob, chunk plans, capacities.

    ``classes[i]`` lists class ``i``'s dispatchable chunks (empty when
    the class runs in the parent); ``need`` holds the exact region
    sizes this solve uses.
    """

    template: object
    classes: List[List[ChunkPlan]]
    blob: bytes
    need: SegmentLayout


def lower_chunks(
    kind: str, plan, instance, workers: int, min_dispatch_ops: int
) -> LoweredSolve:
    """Lower every dispatchable chunk of ``plan`` into template sections.

    Chunks go through :func:`repro.core.vector.lower_chunks` — the
    instance's template and the serial scheduler's ``section_for``.  A
    class with fewer than two cells or ``min_dispatch_ops`` ops is never
    dispatched, and a chunk the batch cannot express is left out; their
    cells run in the parent at merge position, through the per-op
    oracle.
    """
    wanted: List[Tuple[int, int, int, int]] = []
    requests: List[tuple] = []
    max_ops = 1
    for class_index, color_class in enumerate(plan.classes):
        cells = color_class.cells
        if len(cells) < 2 or color_class.num_ops < min_dispatch_ops:
            continue
        offsets = [0]
        for cell in cells:
            offsets.append(offsets[-1] + len(cell.ops))
        max_ops = max(max_ops, offsets[-1])
        for start, stop in chunk_ranges(len(cells), workers):
            wanted.append((class_index, start, stop, offsets[start]))
            requests.append((cells, start, stop))
    template, sections = vector.lower_chunks(instance, kind, requests)
    classes: List[List[ChunkPlan]] = [[] for _ in plan.classes]
    shipped: Dict[Tuple[int, int, int], Tuple[object, int]] = {}
    max_rank = 1
    for (class_index, start, stop, offset), section in zip(wanted, sections):
        if section is None:
            continue
        classes[class_index].append(ChunkPlan(start, stop, section, offset))
        shipped[(class_index, start, stop)] = (section, offset)
        for _owner, ops in section.cells:
            for op in ops:
                max_rank = max(max_rank, op[vector.TOP_RANK])
    stack = template.stack
    width = max(stack.width, 1) if stack is not None else 1
    blob = pickle.dumps(
        WorkerPlan(
            stack=stack if shipped else None,
            width=width,
            max_values=template.max_values,
            chunks=shipped,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return LoweredSolve(
        template=template,
        classes=classes,
        blob=blob,
        need=SegmentLayout(
            num_events=max(len(template.names), 1),
            pin_width=width,
            ledger_size=max(template.ledger_size, 1),
            max_ops=max_ops,
            record_width=record_width_for(max_rank),
            blob_capacity=_align8(len(blob)),
        ),
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
    capacities outgrow the old ones (with geometric headroom).
    """

    def __init__(self) -> None:
        self.segment: Optional[SharedInstanceSegment] = None
        self.lowered: Optional[LoweredSolve] = None
        self.generation = 0
        self._shape: Optional[tuple] = None
        self._plan_ref = None
        self._instance_ref = None
        self._class_index: Dict[int, int] = {}

    def _is_current(self, shape: tuple, plan, instance) -> bool:
        if self.lowered is None or self._shape != shape:
            return False
        if self._plan_ref is None or self._instance_ref is None:
            return False
        return self._plan_ref() is plan and self._instance_ref() is instance

    def ensure(
        self,
        kind: str,
        plan,
        instance,
        workers: int = 1,
        min_dispatch_ops: int = 2,
    ) -> str:
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
        shape = (kind, workers, min_dispatch_ops)
        if self._is_current(shape, plan, instance):
            segment = self.segment
            if (
                segment is not None
                and int(segment.views.header[H_GENERATION])
                == self.generation
            ):
                return "reuse"
            # Defensive: the session claims this solve is current but
            # the segment header disagrees — republish it.
        lowered = lower_chunks(
            kind, plan, instance, workers, min_dispatch_ops
        )
        generation = self.generation + 1
        outcome = "broadcast"
        try:
            if self.segment is None or not self.segment.layout.fits(
                lowered.need
            ):
                layout = (
                    self.segment.layout
                    if self.segment is not None
                    else SegmentLayout(0, 0, 0, 0, 0, 0)
                ).grown_for(lowered.need)
                if self.segment is not None:
                    self.segment.close()
                    self.segment = None
                self.segment = SharedInstanceSegment(layout)
                outcome = "segment"
            self.segment.publish(lowered.blob, generation)
        except BaseException:
            self._forget()
            raise
        self.generation = generation
        self.lowered = lowered
        self._shape = shape
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
        self._shape = None
        self._plan_ref = None
        self._instance_ref = None
        self._class_index = {}

    def class_index(self, color_class) -> int:
        return self._class_index[id(color_class)]

    def chunks(self, class_index: int) -> List[ChunkPlan]:
        """The class's dispatchable chunks (empty: it runs in the parent)."""
        return self.lowered.classes[class_index]

    def stage(self, state, class_index: int) -> int:
        """Copy the rows and slots the class's chunks read into the segment.

        ``state`` is the fixer's :class:`~repro.core.vector._RunState`,
        in the template's row and slot layout; returns the bytes
        written.
        """
        views = self.segment.views
        width = self.lowered.need.pin_width
        written = 0
        for chunk in self.chunks(class_index):
            rows = chunk.section.read_rows
            slots = chunk.section.slot_list
            views.pins[rows, :width] = state.pins[rows, :width]
            views.phi[slots] = state.phi[slots]
            written += (rows.shape[0] * width + slots.shape[0]) * 8
        return written

    def absorb(self, state, chunk: ChunkPlan) -> None:
        """Copy a decided chunk's post-decision rows/slots into ``state``."""
        views = self.segment.views
        width = self.lowered.need.pin_width
        rows = chunk.section.read_rows
        slots = chunk.section.slot_list
        state.pins[rows, :width] = views.pins_out[rows, :width]
        state.phi[slots] = views.phi_out[slots]

    def decode_chunk(self, chunk: ChunkPlan) -> List[List[object]]:
        """Rebuild the choices a worker wrote for one chunk, per cell."""
        rows = self.segment.views.results
        offset = chunk.op_offset
        decoded: List[List[object]] = []
        for _owner, ops in chunk.section.cells:
            choices = []
            for op in ops:
                choices.append(
                    decode_choice(
                        rows[offset], op[vector.TOP_VALUES],
                        op[vector.TOP_RANK],
                    )
                )
                offset += 1
            decoded.append(choices)
        return decoded

    def close(self) -> None:
        """Unlink the segment and drop the lowered solve (idempotent)."""
        if self.segment is not None:
            self.segment.close()
            self.segment = None
        self._forget()
