"""The vector decide plane: whole-class batched fixing decisions.

The scalar hot path decides one op at a time: per affected event one
``conditional_increases`` query (a Python pass through the event layer),
then a Python scan over the support values.  This module batches the
*entire color class* and executes it as a sequence of **waves**, where
wave ``j`` decides the ``j``-th op of every cell at once.  Cells of a
validated class have disjoint event read sets, so the ops of one wave
are independent by construction; ops within a cell stay sequentially
dependent and are separated by waves, exactly mirroring the per-op
order of the scalar loop.

There is one lowering and one wave executor.  The instance is lowered
once into a :class:`_Template` cached on the instance — kernels
deduplicated by fingerprint and stacked
(:class:`repro.probability.engine.KernelStack`), one pins-matrix row per
event, one flat weight-ledger slot per bookkeeping entry, and wave
sections (one per run of cells: a whole color class, or one process
chunk of it) with all index arrays precomputed.  A solve then only
carries a small :class:`_RunState` (the pins matrix and the ledger
array, specialised from live fixer state) through the template, so
repeated solves pay specialisation, not lowering.
:func:`execute_section` runs a section's waves through
:func:`_run_twave` — in the parent for the serial scheduler, and in
the process backend's workers, which receive the built stack and their
chunks' sections once per broadcast and copy only the section's pins
rows and ledger slots per chunk (:mod:`repro.runtime.workers`).

Bit-identity contract: the engine layer reproduces the scalar kernels'
mass arithmetic (see :meth:`KernelStack.query`), the selection layer's
masked argmin/argmax reproduces the scalar tie-breaking
(:mod:`repro.core.selection`), weight products use the same operand
order as the fixers' ``local_weights``, and every derived quantity of a
winning lane (new weights, slack, decompositions) is computed with the
same scalar float operations the per-op rules perform.  Within a wave,
lanes with identical selection inputs (support labels, Inc rows,
bookkeeping weights) are deduplicated before selection — sound because
a decision reads nothing else.

The scalar path stays intact as the differential oracle: the ``decide``
plane of :mod:`repro.planes` (``REPRO_DECIDE=scalar``) switches every
scheduler back to per-op ``decide``/``commit``, and the Hypothesis suite
in ``tests/test_decide_vector.py`` holds the two planes to exact
equality.

Fallback discipline: lowering and execution never alter fixer state
beyond the idempotent first-touch defaults ``local_weights`` itself
installs.  Two kinds of failure send a class back to the untouched
scalar per-op loop: a shape the batch cannot express
(:class:`_NotVectorizable` — a kernel-less event, an unindexable
support, a stack over the batch limit, a rank-3 op without its
dependency edge) and a typed :class:`~repro.errors.ReproError` from the
batch arithmetic, which the scalar loop then re-raises with its exact
op attribution in plan order.  Each fallback is counted in the engine's
``vector_fallbacks`` and emitted as a ``vector/fallback`` event with its
reason; any other exception is a bug and propagates.  Speculative run
state is confirmed by ``commit_class`` and rebuilt from ground truth
(the assignment and the live ledgers) whenever the fixer advanced
through any other path.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.artifacts.fingerprint import instance_key
from repro.artifacts.store import LRUCache, STORE as _ARTIFACTS
from repro.errors import ReproError
from repro.obs.recorder import active as _obs_active
from repro.planes import planes
from repro.probability.engine import (
    DEFAULT_STACK_LIMIT,
    KernelStack,
    STATS,
    _numpy,
)
from repro.core.selection import (
    select_rank1_class,
    select_rank2_class,
    select_rank3_class,
    select_rankr_class,
)

_MISSING = object()

class _NotVectorizable(Exception):
    """Internal: the class cannot take the vector path."""


# ----------------------------------------------------------------------
# Parent side: the instance-level template
# ----------------------------------------------------------------------
# Template op records are plain tuples; the indices below name the
# fields.  ``TOP_GATHER``/``TOP_APPLY`` are ledger-slot layouts: where
# the op's decision weights are read and where its committed weights
# are written back.  For the rank-3 rule the gather is the ``[3, 2]``
# matrix of phi-slot pairs whose products form the representable
# triple, in the exact operand order ``local_weights`` multiplies them.
TOP_VARIABLE = 0  # the DiscreteVariable object
TOP_NAMES = 1  # tuple of affected event names, in bookkeeping order
TOP_RANK = 2  # number of affected events
TOP_VALUES = 3  # tuple of support value labels, in support order
TOP_SUPPORT = 4  # tuple of support value indices (into the value list)
TOP_VALUES_ID = 5  # interned id of the support label tuple
TOP_KEYS = 6  # ledger keys (frozensets) the op reads, or None
TOP_GATHER = 7  # ledger slots read for decision weights, or None
TOP_APPLY = 8  # ledger slots written on commit, or None


class _TGroup:
    """One wave's lanes sharing a selection rule (and rank)."""

    __slots__ = (
        "rule",
        "rank",
        "lanes",  # int64 [L] lane indices
        "lane_list",  # same, as a Python list (fast iteration)
        "values_id",  # float64 [L, 1] interned support-label ids
        "variables",  # per-lane DiscreteVariable (error contexts)
        "values",  # per-lane support label tuples
        "mask",  # bool [L, S] valid support positions
        "gather",  # int64 [L, rank] / [L, 3, 2] phi slots, or None
        "apply",  # int64 [L, m] phi slots, or None
    )


class _TWave:
    """One wave's static structure: queries, groups, pin-scatter sites."""

    __slots__ = (
        "count",
        "cell_of",  # per lane: owning cell index
        "max_rank",
        "max_support",
        "q_kernel",  # [Q] stack slot per engine query
        "q_event",  # [Q] pins-matrix row per query
        "q_target",  # [Q] scope position being conditioned on
        "q_op",  # [Q] lane of the querying op
        "q_slot",  # [Q] event position within the op
        "q_names",  # per-query event name (engine error contexts)
        "q_support",  # [Q, S] support value indices of the querying op
        "groups",
        "site_lane",  # [T] lane per pin-scatter site
        "site_event",  # [T] pins-matrix row per site
        "site_pos",  # [T] pins-matrix column per site
        "site_maps",  # [T, S] pin index per support position
        "site_arange",
    )


#: Per-section cap on memoized decision batches (see :class:`_Section`).
MEMO_LIMIT = 128


class _Section:
    """One color class lowered against a template.

    ``read_rows``/``slot_list`` enumerate every pins-matrix row and
    every phi-ledger slot the section's decisions read or write — the
    *complete* mutable input of the batch (everything else is static
    lowering).  ``memo`` caches finished decision batches
    (:class:`_MemoEntry`) keyed by the exact bytes of that input: the
    wave-level dedup argument lifted to whole classes — a decision batch
    is a pure function of those arrays, so identical pre-state yields
    the identical (shared) choice objects and post-state, bit for bit.
    ``ops`` and ``names`` are the op records and their variable names,
    flat in plan order (the commit loop's columns).
    """

    __slots__ = (
        "cells",
        "waves",
        "num_ops",
        "read_rows",
        "slot_list",
        "memo",
        "ops",
        "names",
    )

    def __getstate__(self):
        # Shipped to process workers without the memo: it is a parent
        # cache, and its choice batches would only bloat the blob.
        return None, {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "memo"
        }


class _Template:
    """The instance-wide static lowering, shared across fixers and runs.

    Events register lazily (with the first class that reads them).
    Every op's pin-scatter sites are exactly its own affected events,
    and an event's scope containing a variable is the same thing as the
    event being affected by it — so any event is registered no later
    than the first op whose fix it must observe, and later classes'
    freshly registered events (whose scopes are disjoint from all
    previously fixed variables) correctly start fully unpinned.
    """

    __slots__ = (
        "kind",
        "index_of",  # event name -> event index
        "names",
        "scopes",
        "slots",  # per event: stack slot of its kernel
        "kernel_of",  # per event: the kernel object
        "kernels",  # unique kernels, by fingerprint
        "fingerprint_slots",
        "stack",
        "stack_size",
        "values_ids",  # support label tuple -> small int
        "supports",  # (values, probabilities) -> (support labels, indices)
        "ledger_slots",  # ledger key -> {event name: phi slot}
        "ledger_size",
        "sections",  # (id(cells), start, stop) -> (cells, _Section)
        "max_values",
    )

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.index_of: Dict[Hashable, int] = {}
        self.names: List[Hashable] = []
        self.scopes: List[tuple] = []
        self.slots: List[int] = []
        self.kernel_of: List[object] = []
        self.kernels: List[object] = []
        self.fingerprint_slots: Dict[bytes, int] = {}
        self.stack: Optional[KernelStack] = None
        self.stack_size = 0
        self.values_ids: Dict[tuple, int] = {}
        self.supports: Dict[tuple, Tuple[tuple, tuple]] = {}
        self.ledger_slots: Dict[frozenset, Dict[Hashable, int]] = {}
        self.ledger_size = 0
        self.sections: Dict[tuple, tuple] = {}
        self.max_values = 1

    # -- events and kernels -------------------------------------------
    def ensure_event(self, event) -> int:
        index = self.index_of.get(event.name)
        if index is not None:
            return index
        kernel = event.compiled_kernel()
        if kernel is None:
            raise _NotVectorizable(
                f"event {event.name!r} has no compiled kernel"
            )
        fingerprint = kernel.fingerprint()
        slot = self.fingerprint_slots.get(fingerprint)
        if slot is None:
            slot = len(self.kernels)
            self.fingerprint_slots[fingerprint] = slot
            self.kernels.append(kernel)
        index = len(self.names)
        self.index_of[event.name] = index
        self.names.append(event.name)
        self.scopes.append(tuple(event.scope_names))
        self.slots.append(slot)
        self.kernel_of.append(kernel)
        return index

    def ensure_stack(self) -> KernelStack:
        if self.stack is None or self.stack_size != len(self.kernels):
            stack = KernelStack(self.kernels)
            if stack.cells > DEFAULT_STACK_LIMIT:
                raise _NotVectorizable(
                    f"kernel stack of {stack.cells} cells exceeds the "
                    f"batch limit"
                )
            self.stack = stack
            self.stack_size = len(self.kernels)
        return self.stack

    def support_of(self, variable) -> Tuple[tuple, tuple]:
        """``(support value labels, support value indices)``, by shape."""
        key = (variable.values, variable.probabilities)
        cached = self.supports.get(key)
        if cached is None:
            values = []
            indices = []
            for index, probability in enumerate(variable.probabilities):
                if probability > 0.0:
                    values.append(variable.values[index])
                    indices.append(index)
            cached = (tuple(values), tuple(indices))
            self.supports[key] = cached
        return cached

    # -- ledger slots --------------------------------------------------
    def _slots_for(
        self, key: frozenset, names: tuple
    ) -> Dict[Hashable, int]:
        slot_map = self.ledger_slots.get(key)
        if slot_map is None:
            base = self.ledger_size
            slot_map = {
                name: base + offset for offset, name in enumerate(names)
            }
            self.ledger_size = base + len(names)
            self.ledger_slots[key] = slot_map
        return slot_map

    def _ledger_layout(self, names: tuple, rank: int):
        """``(keys, gather slots, apply slots)`` for one op."""
        if self.kind == "naive":
            key = frozenset(names)
            slot_map = self._slots_for(key, names)
            slots = tuple(slot_map[name] for name in names)
            return (key,), slots, slots
        if rank == 1:
            return None, None, None
        if rank == 2:
            key = frozenset(names)
            slot_map = self._slots_for(key, names)
            slots = (slot_map[names[0]], slot_map[names[1]])
            return (key,), slots, slots
        u, v, w = names
        key_uv = frozenset((u, v))
        key_uw = frozenset((u, w))
        key_vw = frozenset((v, w))
        map_uv = self._slots_for(key_uv, (u, v))
        map_uw = self._slots_for(key_uw, (u, w))
        map_vw = self._slots_for(key_vw, (v, w))
        gather = (
            (map_uv[u], map_uw[u]),
            (map_uv[v], map_vw[v]),
            (map_uw[w], map_vw[w]),
        )
        apply_slots = (
            map_uv[u],
            map_uv[v],
            map_uw[u],
            map_uw[w],
            map_vw[v],
            map_vw[w],
        )
        return (key_uv, key_uw, key_vw), gather, apply_slots

    # -- class sections ------------------------------------------------
    def section_for(
        self, instance, cells, start: int = 0, stop: Optional[int] = None
    ) -> _Section:
        """The section of ``cells[start:stop]`` (default: all of them).

        The serial scheduler lowers whole classes; the process backend
        lowers one section per chunk range.  With a single chunk both
        ask for the same key and share one lowering.  ``instance`` is
        only read while lowering — the template never holds it, so a
        cached template keeps no instance (predicates, caches) alive.
        """
        if stop is None:
            stop = len(cells)
        key = (id(cells), start, stop)
        entry = self.sections.get(key)
        if entry is not None and entry[0] is cells:
            return entry[1]
        section = self._lower(instance, cells[start:stop])
        self.sections[key] = (cells, section)
        return section

    def _lower(self, instance, cells) -> _Section:
        section = _Section()
        section.cells = []
        section.waves = []
        section.memo = LRUCache(MEMO_LIMIT)
        read_set: set = set()
        slot_set: set = set()
        raw: List[tuple] = []
        num_ops = 0
        for cell_index, cell in enumerate(cells):
            op_records = []
            for op_index, op in enumerate(cell.ops):
                variable = instance.variable(op.variable)
                events = instance.events_of_variable(op.variable)
                names = tuple(event.name for event in events)
                rank = len(names)
                indices = [self.ensure_event(event) for event in events]
                values, support = self.support_of(variable)
                if variable.num_values > self.max_values:
                    self.max_values = variable.num_values
                values_id = self.values_ids.setdefault(
                    values, len(self.values_ids)
                )
                sites = []
                pin_maps = []
                for event_index in indices:
                    position = self.scopes[event_index].index(
                        variable.name
                    )
                    value_map = self.kernel_of[event_index].support_map(
                        position, values
                    )
                    if value_map is None:
                        raise _NotVectorizable(
                            f"support of {variable.name!r} not indexable "
                            f"in event {self.names[event_index]!r}"
                        )
                    sites.append((event_index, position))
                    pin_maps.append(value_map)
                keys, gather, apply_slots = self._ledger_layout(
                    names, rank
                )
                read_set.update(indices)
                if apply_slots is not None:
                    slot_set.update(apply_slots)
                if gather is not None:
                    for entry in gather:
                        if isinstance(entry, tuple):
                            slot_set.update(entry)
                        else:
                            slot_set.add(entry)
                record = (
                    variable,
                    names,
                    rank,
                    values,
                    support,
                    values_id,
                    keys,
                    gather,
                    apply_slots,
                )
                op_records.append(record)
                raw.append((cell_index, op_index, record, sites, pin_maps))
                num_ops += 1
            section.cells.append((cell.owner, op_records))
        section.num_ops = num_ops
        section.ops = [entry[2] for entry in raw]
        section.names = [record[TOP_VARIABLE].name for record in section.ops]
        np = _numpy()
        section.read_rows = np.asarray(sorted(read_set), dtype=np.int64)
        section.slot_list = np.asarray(sorted(slot_set), dtype=np.int64)
        self._assemble(section, raw)
        self.ensure_stack()
        return section

    def _assemble(self, section: _Section, raw: List[tuple]) -> None:
        np = _numpy()
        num_waves = max((entry[1] for entry in raw), default=-1) + 1
        buckets: List[List[tuple]] = [[] for _ in range(num_waves)]
        for entry in raw:
            buckets[entry[1]].append(entry)
        naive = self.kind == "naive"
        for bucket in buckets:
            wave = _TWave()
            count = len(bucket)
            wave.count = count
            wave.cell_of = [entry[0] for entry in bucket]
            max_rank = 1
            max_support = 1
            for _c, _w, record, _s, _m in bucket:
                if record[TOP_RANK] > max_rank:
                    max_rank = record[TOP_RANK]
                size = len(record[TOP_SUPPORT])
                if size > max_support:
                    max_support = size
            wave.max_rank = max_rank
            wave.max_support = max_support
            support_matrix = np.zeros(
                (count, max_support), dtype=np.int64
            )
            mask_matrix = np.zeros((count, max_support), dtype=bool)
            q_kernel: List[int] = []
            q_event: List[int] = []
            q_target: List[int] = []
            q_op: List[int] = []
            q_slot: List[int] = []
            q_names: List[Hashable] = []
            site_lane: List[int] = []
            site_event: List[int] = []
            site_pos: List[int] = []
            site_maps: List[tuple] = []
            grouped: Dict[Tuple[str, int], List[int]] = {}
            for lane, (_c, _w, record, sites, pin_maps) in enumerate(
                bucket
            ):
                support = record[TOP_SUPPORT]
                size = len(support)
                support_matrix[lane, :size] = support
                mask_matrix[lane, :size] = True
                for slot_index, (event_index, position) in enumerate(
                    sites
                ):
                    q_kernel.append(self.slots[event_index])
                    q_event.append(event_index)
                    q_target.append(position)
                    q_op.append(lane)
                    q_slot.append(slot_index)
                    q_names.append(self.names[event_index])
                for (event_index, position), value_map in zip(
                    sites, pin_maps
                ):
                    site_lane.append(lane)
                    site_event.append(event_index)
                    site_pos.append(position)
                    site_maps.append(
                        value_map
                        + (0,) * (max_support - len(value_map))
                    )
                rank = record[TOP_RANK]
                rule = "rankr" if naive else f"rank{rank}"
                grouped.setdefault((rule, rank), []).append(lane)
            q_op_array = np.asarray(q_op, dtype=np.int64)
            wave.q_kernel = np.asarray(q_kernel, dtype=np.int64)
            wave.q_event = np.asarray(q_event, dtype=np.int64)
            wave.q_target = np.asarray(q_target, dtype=np.int64)
            wave.q_op = q_op_array
            wave.q_slot = np.asarray(q_slot, dtype=np.int64)
            wave.q_names = q_names
            wave.q_support = support_matrix[q_op_array]
            wave.site_lane = np.asarray(site_lane, dtype=np.int64)
            wave.site_event = np.asarray(site_event, dtype=np.int64)
            wave.site_pos = np.asarray(site_pos, dtype=np.int64)
            wave.site_maps = np.asarray(
                site_maps, dtype=np.int64
            ).reshape(len(site_maps), max_support)
            wave.site_arange = np.arange(len(site_maps))
            wave.groups = []
            for (rule, rank), lane_list in grouped.items():
                group = _TGroup()
                group.rule = rule
                group.rank = rank
                group.lane_list = lane_list
                group.lanes = np.asarray(lane_list, dtype=np.int64)
                records = [bucket[lane][2] for lane in lane_list]
                group.values_id = np.asarray(
                    [record[TOP_VALUES_ID] for record in records],
                    dtype=np.float64,
                ).reshape(len(lane_list), 1)
                group.variables = [
                    record[TOP_VARIABLE] for record in records
                ]
                group.values = [
                    record[TOP_VALUES] for record in records
                ]
                group.mask = mask_matrix[group.lanes]
                if records[0][TOP_GATHER] is None:
                    group.gather = None
                    group.apply = None
                else:
                    group.gather = np.asarray(
                        [record[TOP_GATHER] for record in records],
                        dtype=np.int64,
                    )
                    group.apply = np.asarray(
                        [record[TOP_APPLY] for record in records],
                        dtype=np.int64,
                    )
                wave.groups.append(group)
            section.waves.append(wave)


def _template_for(instance, kind: str) -> _Template:
    templates = getattr(instance, "_vector_templates", None)
    if templates is None:
        templates = {}
        instance._vector_templates = templates
    template = templates.get(kind)
    if template is None:
        # Cross-instance reuse: a template lowered for any earlier
        # instance of the same structural fingerprint is valid verbatim
        # — equal fingerprints mean equal event names, scopes, supports
        # and truth tables, so every name, kernel and variable object
        # the template holds is interchangeable with this instance's.
        key = instance_key(instance, "template", kind)
        template = _ARTIFACTS.get("templates", key)
        if template is None:
            template = _Template(kind)
            _ARTIFACTS.put("templates", key, template)
        templates[kind] = template
    return template


# ----------------------------------------------------------------------
# Parent side: per-fixer run state
# ----------------------------------------------------------------------
class _RunState:
    """The mutable arrays one fixer's solve carries through a template.

    ``pending`` holds the class most recently decided but not yet
    committed, as ``(cells, parts)`` with one ``(section, memo entry or
    None, live ledger refs per op)`` part per section — one section
    decided in this process, or several chunk sections decided in
    process workers (no memo entry); decisions mutate the pins matrix
    and the ledger array speculatively, so an unconfirmed pending class
    (or any fixer progress outside the vector path, detected via the
    step count) invalidates the state and forces a rebuild from ground
    truth.
    """

    __slots__ = (
        "template",
        "pins",
        "phi",
        "steps_seen",
        "pending",
        "refs_cache",
    )

    def __init__(self, template: _Template) -> None:
        self.template = template
        self.pins = None
        self.phi = None
        self.steps_seen = 0
        self.pending: Optional[tuple] = None
        # Per-section live ledger entries (_resolve_refs output); the
        # entry dicts are created once per fixer and mutated in place,
        # so the resolution is stable for this fixer's lifetime.
        self.refs_cache: Dict[int, list] = {}

    def ensure_capacity(self, np) -> None:
        template = self.template
        width = max(template.stack.width, 1)
        num_events = len(template.names)
        pins = self.pins
        if pins is None:
            self.pins = np.full(
                (num_events, width), -1, dtype=np.int64
            )
        else:
            rows, cols = pins.shape
            if cols < width:
                pins = np.concatenate(
                    [
                        pins,
                        np.full(
                            (rows, width - cols), -1, dtype=np.int64
                        ),
                    ],
                    axis=1,
                )
            if rows < num_events:
                pins = np.concatenate(
                    [
                        pins,
                        np.full(
                            (num_events - rows, pins.shape[1]),
                            -1,
                            dtype=np.int64,
                        ),
                    ],
                    axis=0,
                )
            self.pins = pins
        phi = self.phi
        size = template.ledger_size
        if phi is None:
            self.phi = np.ones(max(size, 1), dtype=np.float64)
        elif phi.shape[0] < size:
            self.phi = np.concatenate(
                [phi, np.ones(size - phi.shape[0], dtype=np.float64)]
            )


def _build_state(fixer, template: _Template) -> _RunState:
    """Specialise fresh run state from live fixer state (ground truth)."""
    np = _numpy()
    template.ensure_stack()
    state = _RunState(template)
    state.steps_seen = len(fixer._steps)
    state.ensure_capacity(np)
    values_map = fixer.assignment._values
    if values_map:
        pins = state.pins
        kernel_of = template.kernel_of
        scopes = template.scopes
        for index in range(len(template.names)):
            kernel = kernel_of[index]
            for position, name in enumerate(scopes[index]):
                value = values_map.get(name, _MISSING)
                if value is not _MISSING:
                    pin = kernel.value_index(position, value)
                    if pin is None:
                        raise _NotVectorizable(
                            f"value of {name!r} outside the support of "
                            f"event {template.names[index]!r}"
                        )
                    pins[index, position] = pin
    if state.steps_seen or values_map:
        phi = state.phi
        ledger = fixer.vector_ledger
        for key, slot_map in template.ledger_slots.items():
            live = ledger.get(key)
            if live is not None:
                for name, slot in slot_map.items():
                    phi[slot] = live[name]
    return state


def _resolve_refs(section: _Section, fixer) -> list:
    """Live ledger entries per op (flat, plan order), for ``commit_class``.

    The fixer's own ``_ledger_ref`` hook resolves each op on the
    template's precomputed keys.  A key the fixer's ledger lacks (a
    rank-3 op with no dependency edge) sends the class to the scalar
    path, which raises the proper error.
    """
    ledger_ref = fixer._ledger_ref
    try:
        return [ledger_ref(op[TOP_NAMES], op[TOP_KEYS]) for op in section.ops]
    except KeyError as error:
        raise _NotVectorizable(
            f"no dependency edge {sorted(map(repr, error.args[0]))}"
        ) from None


class _MemoEntry:
    """One memoised decision batch of a section.

    ``choices`` per cell in op order (shared by every replay), the
    section's post-decision pins rows and phi slots, and ``records``:
    the step records of the batch, flat in plan order, built by the
    first commit of the entry and shared by every later one (a step
    record is a pure function of the template's op and its choice).
    """

    __slots__ = ("choices", "pins", "phi", "records")

    def __init__(self, choices, pins, phi) -> None:
        self.choices = choices
        self.pins = pins
        self.phi = phi
        self.records: Optional[list] = None


def _run_section(state: _RunState, section: _Section) -> _MemoEntry:
    np = _numpy()
    template = state.template
    stack = template.ensure_stack()
    state.ensure_capacity(np)
    pins = state.pins
    phi = state.phi
    # Class-decision memoization: the signature is the byte-exact
    # mutable input of the whole batch (every pins row and phi slot the
    # section reads or writes), so a hit replays the identical choice
    # objects and post-state — the per-wave dedup argument, one level
    # up.  Shared across fixers via the template: the batch is a pure
    # function of the signature.
    read_rows = section.read_rows
    slot_list = section.slot_list
    signature = pins[read_rows].tobytes() + phi[slot_list].tobytes()
    memo = section.memo
    hit = memo.get(signature)
    if hit is not None:
        pins[read_rows] = hit.pins
        phi[slot_list] = hit.phi
        STATS.vector_memo_hits += 1
        return hit
    results = execute_section(stack, pins, phi, section, template.max_values)
    # LRU insert: the memo evicts its least recently used batch at
    # capacity instead of silently refusing new entries, so a workload
    # cycling through more than MEMO_LIMIT distinct signatures keeps a
    # live working set instead of freezing the first 128 forever.
    entry = _MemoEntry(results, pins[read_rows].copy(), phi[slot_list].copy())
    memo.put(signature, entry)
    return entry


def execute_section(stack, pins, phi, section, max_values) -> List[list]:
    """Decide every op of a lowered section, wave by wave.

    Reads and writes only the section's ``read_rows`` of ``pins`` and
    its ``slot_list`` of ``phi`` (indices of the template layout), and
    returns the choices per cell in op order.  The serial path passes
    its run state; a process worker passes its chunk-private copy.
    """
    np = _numpy()
    results: List[list] = [[] for _ in section.cells]
    for wave in section.waves:
        _run_twave(np, stack, pins, phi, wave, results, max_values)
    return results


def _run_twave(np, stack, pins, phi, wave, results, max_values) -> None:
    count = wave.count
    if count == 0:
        return
    max_support = wave.max_support
    incs = np.ones(
        (count, wave.max_rank, max_support), dtype=np.float64
    )
    if wave.q_kernel.shape[0]:
        afters, before = stack.query(
            wave.q_kernel,
            pins[wave.q_event],
            wave.q_target,
            max_values,
            wave.q_names,
        )
        gathered = np.take_along_axis(afters, wave.q_support, axis=1)
        positive = before > 0.0
        denominator = np.where(positive, before, 1.0)
        ratios = np.where(
            positive[:, None], gathered / denominator[:, None], 0.0
        )
        incs[wave.q_op, wave.q_slot] = ratios

    choices: List[object] = [None] * count
    positions = np.zeros(count, dtype=np.int64)
    for group in wave.groups:
        lanes = group.lanes
        rank = group.rank
        rule = group.rule
        lane_count = lanes.shape[0]
        sub = incs[lanes, :rank]
        if group.gather is None:
            weights = None
            key_matrix = np.concatenate(
                [group.values_id, sub.reshape(lane_count, -1)], axis=1
            )
        else:
            gathered_w = phi[group.gather]
            if rule == "rank3":
                weights = gathered_w[:, :, 0] * gathered_w[:, :, 1]
            else:
                weights = gathered_w
            key_matrix = np.concatenate(
                [
                    group.values_id,
                    weights,
                    sub.reshape(lane_count, -1),
                ],
                axis=1,
            )
        # Deduplicate lanes with identical selection inputs; the
        # representative's choice is shared (a decision reads nothing
        # but support labels, Inc rows and bookkeeping weights).
        seen: Dict[bytes, int] = {}
        reps: List[int] = []
        assign = np.empty(lane_count, dtype=np.int64)
        for row in range(lane_count):
            key = key_matrix[row].tobytes()
            index = seen.get(key, -1)
            if index < 0:
                index = len(reps)
                seen[key] = index
                reps.append(row)
            assign[row] = index
        rep_rows = np.asarray(reps, dtype=np.int64)
        variables = [group.variables[row] for row in reps]
        values = [group.values[row] for row in reps]
        mask = group.mask[rep_rows]
        rep_sub = sub[rep_rows]
        if rule == "rank1":
            rep_choices = select_rank1_class(
                variables, values, rep_sub[:, 0], mask
            )
        elif rule == "rank2":
            rep_choices = select_rank2_class(
                variables,
                values,
                rep_sub[:, 0],
                rep_sub[:, 1],
                weights[rep_rows],
                mask,
            )
        elif rule == "rank3":
            rep_choices = select_rank3_class(
                variables,
                values,
                rep_sub[:, 0],
                rep_sub[:, 1],
                rep_sub[:, 2],
                weights[rep_rows],
                mask,
            )
        else:
            rep_choices = select_rankr_class(
                variables,
                values,
                [
                    rep_sub[:, position]
                    for position in range(rank)
                ],
                weights[rep_rows],
                mask,
            )
        rep_positions = np.asarray(
            [
                values[index].index(choice.value)
                for index, choice in enumerate(rep_choices)
            ],
            dtype=np.int64,
        )
        positions[lanes] = rep_positions[assign]
        lane_list = group.lane_list
        for offset in range(lane_count):
            choices[lane_list[offset]] = rep_choices[assign[offset]]
        if group.apply is not None:
            if rule == "rank3":
                rep_values = np.asarray(
                    [
                        (
                            choice.decomposition.a1,
                            choice.decomposition.b1,
                            choice.decomposition.a2,
                            choice.decomposition.c2,
                            choice.decomposition.b3,
                            choice.decomposition.c3,
                        )
                        if choice.decomposition is not None
                        else choice.new_weights
                        for choice in rep_choices
                    ],
                    dtype=np.float64,
                )
            else:
                rep_values = np.asarray(
                    [choice.new_weights for choice in rep_choices],
                    dtype=np.float64,
                )
            phi[group.apply] = rep_values[assign]

    cell_of = wave.cell_of
    for lane in range(count):
        results[cell_of[lane]].append(choices[lane])
    if wave.site_event.shape[0]:
        pins[wave.site_event, wave.site_pos] = wave.site_maps[
            wave.site_arange, positions[wave.site_lane]
        ]


# ----------------------------------------------------------------------
# Parent-side entry points
# ----------------------------------------------------------------------
def _fallback(fixer, error: Exception) -> None:
    """Count one class (or chunk) sent to the scalar loop, with its reason."""
    STATS.vector_fallbacks += 1
    if fixer is not None:
        fixer._vector_state = None
    recorder = _obs_active()
    if recorder is not None:
        recorder.event(
            "vector",
            "fallback",
            reason=str(error),
            error=type(error).__name__,
        )


def _live_state(fixer, template: _Template) -> _RunState:
    """The fixer's run state, rebuilt unless it is current.

    Current means: lowered against this template, no unconfirmed
    pending class, and no fixer progress outside the vector path.
    """
    state = fixer._vector_state
    if (
        state is None
        or state.template is not template
        or state.pending is not None
        or state.steps_seen != len(fixer._steps)
    ):
        state = _build_state(fixer, template)
    state.ensure_capacity(_numpy())
    return state


def _section_refs(state: _RunState, section: _Section, fixer):
    refs = state.refs_cache.get(id(section))
    if refs is None:
        refs = _resolve_refs(section, fixer)
        state.refs_cache[id(section)] = refs
    return refs


def _park(fixer, state: _RunState, cells, parts) -> None:
    """Leave ``cells``' decided lowering pending for ``commit_class``.

    ``parts`` lists ``(section, memo entry or None, refs)`` per section.
    """
    state.pending = (cells, parts)
    state.steps_seen = len(fixer._steps) + sum(
        part[0].num_ops for part in parts
    )
    fixer._vector_state = state


def decide_class_choices(fixer, cells, instance) -> Optional[List[list]]:
    """Batched pure decide for a whole color class.

    Returns the per-cell choice lists (and parks the run state as
    pending for :func:`cached_commit` / the fixer's ``commit_class``), or
    ``None`` when the class should take the scalar per-op path instead
    — scalar decide mode, or a counted fallback (see the module
    docstring); the scalar loop then reproduces the exact scalar-path
    outcome, including error attribution.  The fixer names its
    selection discipline and live ledger through ``vector_kind`` and
    ``vector_ledger``.
    """
    if planes().decide == "scalar":
        return None
    try:
        template = _template_for(instance, fixer.vector_kind)
        section = template.section_for(instance, cells)
        state = _live_state(fixer, template)
        refs = _section_refs(state, section, fixer)
        entry = _run_section(state, section)
    except (_NotVectorizable, ReproError) as error:
        _fallback(fixer, error)
        return None
    _park(fixer, state, cells, ((section, entry, refs),))
    return entry.choices


def lower_chunks(instance, kind: str, chunks):
    """Lower process-backend chunks on the instance's template.

    ``chunks`` lists ``(cells, start, stop)`` ranges of color classes;
    each is lowered by :meth:`_Template.section_for`, exactly like a
    serial class.  Returns ``(template, sections)`` with ``None`` for
    every chunk the batch cannot express (each a counted fallback), and
    ``None`` throughout when the stacked kernels outgrow the batch
    limit.
    """
    template = _template_for(instance, kind)
    sections = []
    for cells, start, stop in chunks:
        try:
            sections.append(
                template.section_for(instance, cells, start, stop)
            )
        except (_NotVectorizable, ReproError) as error:
            _fallback(None, error)
            sections.append(None)
    try:
        template.ensure_stack()
    except _NotVectorizable as error:
        _fallback(None, error)
        sections = [None] * len(sections)
    return template, sections


def open_worker_class(fixer, template: _Template, sections):
    """The fixer's run state for a class decided by process workers.

    ``sections`` are the class's chunk sections, lowered on ``template``
    by the process backend.  Returns the current :class:`_RunState`
    (its ``read_rows``/``slot_list`` are what the parent copies into
    the shared segment), or ``None`` after a counted fallback — the
    class then runs through the scalar per-op loop in the parent.
    """
    try:
        state = _live_state(fixer, template)
        for section in sections:
            _section_refs(state, section, fixer)
    except (_NotVectorizable, ReproError) as error:
        _fallback(fixer, error)
        return None
    fixer._vector_state = state
    return state


def park_worker_class(fixer, state: _RunState, cells, sections) -> None:
    """Park a worker-decided class for the fixer's ``commit_class``.

    The caller has already copied the workers' post-decision pins rows
    and ledger slots into ``state``, so after the commit the run state
    is exactly what the serial vector path would hold.
    """
    _park(
        fixer,
        state,
        cells,
        [
            (section, None, state.refs_cache[id(section)])
            for section in sections
        ],
    )


def cached_commit(fixer, cells) -> Optional[_RunState]:
    """The pending run state for ``cells``, if the fixer just decided it.

    Identity-checked so a commit can only reuse the lowering of the
    class it is committing; the caller must clear ``pending`` (or drop
    the state entirely) once the fixer has been mutated.
    """
    state = fixer._vector_state
    if (
        state is not None
        and state.pending is not None
        and state.pending[0] is cells
    ):
        return state
    return None
