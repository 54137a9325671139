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
chunk of it) with all index arrays precomputed.  Lowering reads the
instance's :class:`~repro.artifacts.fingerprint.ScopeLayout` columns
(``scope_slots``, ``offsets``, ``event_shapes``) as whole arrays.
Each variable's events come from the instance's
:func:`~repro.core.indexing.event_incidence`, the transpose the plan
builders read too; kernels and pin maps are looked up once per event
shape and scope position, ledger slots are numbered from sorted integer
event-index keys, and each wave's query, site and group arrays come
from numpy grouping; per op it builds only the records the commit loop
reads.  A solve then only carries a small :class:`_RunState` (the
pins matrix and the ledger array, specialised from live fixer state)
through the template, so repeated solves pay specialisation, not
lowering.

The template's phi slot layout is also the rank-2 and naive fixers' own
ledger: each keeps one float64 array in it
(:class:`~repro.core.fixer.WeightLedgerFixer`), so opening a section
only records the first touch of its keys, and committing a decided
class copies the section's slots from the run state in one scatter, with
no per-op ledger refs.  The rank-3 fixer keeps property P*'s per-edge
entries, resolved per op once per section (:func:`section_refs`).
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
beyond the first touch of the class's ledger keys, which per-op decides
of the same class in plan order record identically.  Two kinds of
failure send a class back to the untouched scalar per-op loop: a shape
the batch cannot express
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

from itertools import chain, count, repeat
from operator import attrgetter, is_
from typing import Dict, Hashable, List, Optional

from repro.artifacts.fingerprint import instance_key, scope_layout
from repro.artifacts.store import LRUCache, STORE as _ARTIFACTS
from repro.errors import ReproError
from repro.graph.csr import concatenated_ranges, sort_unique
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


class _NotVectorizable(Exception):
    """Internal: the class cannot take the vector path."""


# ----------------------------------------------------------------------
# Parent side: the instance-level template
# ----------------------------------------------------------------------
# Template op records are plain tuples; the indices below name the
# fields.  ``TOP_APPLY`` is the op's ledger-slot layout: where its
# committed weights are written back.
TOP_VARIABLE = 0  # the DiscreteVariable object
TOP_NAMES = 1  # tuple of affected event names, in bookkeeping order
TOP_RANK = 2  # number of affected events
TOP_VALUES = 3  # tuple of support value labels, in support order
TOP_KEYS = 4  # ledger keys (frozensets) the op reads, or None
TOP_APPLY = 5  # ledger slots written on commit, or None

#: The rank-3 rule's decision weights are the ``[3, 2]`` matrix of
#: phi-slot pairs whose products form the representable triple, in the
#: exact operand order ``local_weights`` multiplies them.  Entries are
#: positions in the op's apply slots ``(uv:u, uv:v, uw:u, uw:w, vw:v,
#: vw:w)``.
_RANK3_GATHER = ((0, 2), (1, 4), (3, 5))


#: The ledger keys of a rank-2 or rank-3 op under the pair rules: event
#: pairs, as positions in the op's events (see ``_Template._key_sides``).
_PAIR_SIDES = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


def _number_rows(np, rows, radix: int):
    """Dense ids of the distinct rows of an int64 matrix, and their count.

    Column by column, a row's id so far and its next entry form one
    integer pair key, renumbered by :func:`sort_unique`; ``radix``
    exceeds every entry.  Ids follow the rows' lexicographic order.
    """
    ids = np.zeros(rows.shape[0], dtype=np.int64)
    distinct = ids
    for column in range(rows.shape[1]):
        codes = ids * radix + rows[:, column]
        distinct = sort_unique(codes)
        ids = np.searchsorted(distinct, codes)
    return ids, len(distinct)


def _first_of(np, ids, count: int):
    """The first position of each id ``0 .. count - 1`` in ``ids``."""
    order = np.argsort(ids, kind="stable")
    return order[np.searchsorted(ids[order], np.arange(count))]


def _first_appearances(np, values):
    """The distinct entries of ``values`` in order of first appearance."""
    distinct = sort_unique(values)
    firsts = _first_of(np, np.searchsorted(distinct, values), len(distinct))
    return values[np.sort(firsts)]


def _require_kernel_gate(np, events, num_outcomes: int) -> None:
    """Raise unless every event would take a shared shape kernel.

    The per-event side of ``BadEvent._compile_kernel``: an event whose
    own enumeration limit is below the shape's outcome count, or whose
    compile already failed, has no kernel.
    """
    limits = np.fromiter(
        map(attrgetter("_enumeration_limit"), events),
        dtype=np.int64,
        count=len(events),
    )
    refused = np.fromiter(
        map(is_, map(attrgetter("_kernel"), events), repeat(None)),
        dtype=bool,
        count=len(events),
    )
    over = np.flatnonzero(refused | (limits < num_outcomes))
    if len(over):
        raise _NotVectorizable(
            f"event {events[int(over[0])].name!r} has no compiled kernel"
        )


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
        # An op's pin-scatter sites are its queries: its own events.
        "site_maps",  # [Q, S] pin index per support position
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
    flat in plan order (the commit loop's columns).  ``touch_keys`` are
    the ledger keys the ops write, in order of first write: the order in
    which a per-op pass over the section first touches them.
    """

    __slots__ = (
        "cells",
        "waves",
        "num_ops",
        "read_rows",
        "slot_list",
        "touch_keys",
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

    The first section binds the template to the instance's scope
    columns (:class:`~repro.artifacts.fingerprint.ScopeLayout`): event
    ``i`` of the layout is pins-matrix row ``i``, each variable's events
    come from the instance's :func:`~repro.core.indexing.event_incidence`
    (the one transpose of the scope columns), and supports
    and ledger slots are arrays over variable rows.  All of it is a
    function of the instance fingerprint, so fingerprint-equal instances
    share it.

    Kernels register lazily, with the first section that reads an
    event: with the artifact store on, one ``compiled_kernel`` per
    hinted event shape (on the shape's first event, the one the
    fingerprint-keyed layers also ask); otherwise one per event.  An
    event's row is pinned only by ops that affect it, and those ops'
    sections register it, so no row is read before its event has a
    kernel.
    """

    __slots__ = (
        "kind",
        "names",  # per event: its name
        "offsets",  # int64 [E + 1]: event i's scope in scope_vars (None
        # until bound)
        "scope_vars",  # int64 [P]: variable row of every scope position
        "var_ptr",  # int64 [V + 1]: variable v's sites start at var_ptr[v]
        "var_events",  # int64 [P]: each variable's events, in event order
        "var_positions",  # int64 [P]: its scope position in each
        "row_of",  # variable name -> variable row
        "variables",  # per variable row: the DiscreteVariable
        "var_supports",  # int64 [V]: support id per variable row
        "support_labels",  # per support id: the support value labels
        "support_table",  # int64 [S, W]: support value indices, 0-padded
        "support_sizes",  # int64 [S]
        "support_ids",  # float64 [S]: interned id of the label tuple
        "num_values",  # int64 [S]: length of the value list
        "var_apply",  # int64 [V, A]: ledger slots per variable, -1-padded
        "apply_widths",  # int64 [V]: used columns of var_apply
        "ledger_keys",  # per key width: (first slot, first key, rows)
        "ledger_size",
        "num_keys",
        "key_ptr",  # int64 [num_keys + 1]: key k's slots start there
        "slot_key",  # int64 [ledger_size]: the ledger key of each slot
        "slot_event",  # int64 [ledger_size]: the event of each slot
        "var_ledger",  # per variable row: (key, slots) or None; built
        # on first use by the scalar path
        "event_shapes",  # int64 [E]: layout shape per event
        "shape_first",  # int64 [shapes]: the first event of each shape
        "shape_hinted",  # bool [shapes]: the shape has a shape key
        "shape_kernels",  # shape -> index into kernel_objects
        "pin_span",  # code radix of (shape, position, support) pin keys
        "pin_maps",  # pin key -> pin index per support position
        "kernel_ids",  # int64 [E]: index into kernel_objects, -1 unset
        "kernel_objects",  # the registered kernel objects
        "kernel_slots",  # per kernel object: its stack slot
        "slots",  # int64 [E]: stack slot per registered event
        "kernels",  # unique kernels, by fingerprint
        "fingerprint_slots",
        "stack",
        "stack_size",
        "sections",  # (id(cells), start, stop) -> (cells, _Section)
        "max_values",
    )

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.names: List[Hashable] = []
        self.offsets = None
        self.shape_kernels: Dict[int, int] = {}
        self.pin_maps: Dict[int, tuple] = {}
        self.kernel_objects: List[object] = []
        self.kernel_slots: List[int] = []
        self.kernels: List[object] = []
        self.fingerprint_slots: Dict[bytes, int] = {}
        self.stack: Optional[KernelStack] = None
        self.stack_size = 0
        self.var_apply = None
        self.ledger_keys: List[tuple] = []
        self.ledger_size = 0
        self.num_keys = 0
        self.var_ledger: Optional[list] = None
        self.sections: Dict[tuple, tuple] = {}
        self.max_values = 1

    # -- binding to the scope columns ---------------------------------
    def bind_ledger(self, instance) -> None:
        """Bind the variable rows and the phi slot layout (idempotent).

        The fixers' weight ledgers live in this layout, so a fixer binds
        it on construction; lowering a section binds the rest.
        """
        if self.var_apply is not None:
            return
        from repro.core.indexing import event_incidence

        incidence = event_incidence(instance)
        self.names = incidence.names
        # Variable rows and each variable's events (in event order: the
        # instance's bookkeeping order) are the incidence's transpose.
        self.row_of = incidence.row_of
        self.scope_vars = incidence.scope_vars
        self.var_ptr = incidence.var_ptr
        self.var_events = incidence.var_events
        self.var_positions = incidence.var_positions
        self._bind_ledger(_numpy(), incidence.num_events)

    def _bind(self, np, instance) -> None:
        from repro.core.indexing import event_incidence

        self.bind_ledger(instance)
        layout = scope_layout(instance)
        offsets = np.array(layout.offsets, dtype=np.int64)
        lengths = np.diff(offsets)
        self.offsets = offsets
        self.variables = instance.variables
        self._bind_supports(
            np, layout, event_incidence(instance).slot_rows
        )

        shapes = np.frombuffer(layout.event_shapes, np.int64)
        self.event_shapes = shapes
        self.shape_first = _first_of(np, shapes, len(layout.shape_keys))
        self.shape_hinted = np.asarray(
            [key is not None for key in layout.shape_keys], dtype=bool
        )
        self.pin_span = (
            max(int(lengths.max(initial=0)), 1),
            max(len(self.support_labels), 1),
        )
        num_events = len(self.names)
        self.kernel_ids = np.full(num_events, -1, dtype=np.int64)
        self.slots = np.full(num_events, -1, dtype=np.int64)

    def _bind_supports(self, np, layout, slot_rows) -> None:
        """Support columns per distinct layout support.

        A layout support is exact: value-label ``repr`` and probability
        bytes, so labels ``0``, ``0.0`` and ``False`` stay apart.  Each
        variable row takes the support of its first slot, the
        instance's own variable object.
        """
        first_slots = _first_of(np, slot_rows, len(self.variables))
        supports = np.asarray(layout.slot_supports, dtype=np.int64)[
            first_slots
        ]
        used = sort_unique(supports)
        self.var_supports = np.searchsorted(used, supports)
        representatives = [
            self.variables[row]
            for row in _first_of(np, self.var_supports, len(used)).tolist()
        ]
        indices = [
            tuple(
                index
                for index, probability in enumerate(variable.probabilities)
                if probability > 0.0
            )
            for variable in representatives
        ]
        labels = [
            tuple(map(variable.values.__getitem__, support))
            for variable, support in zip(representatives, indices)
        ]
        table = np.zeros(
            (len(indices), max(map(len, indices), default=1) or 1),
            dtype=np.int64,
        )
        for row, support in enumerate(indices):
            table[row, : len(support)] = support
        self.support_labels = labels
        self.support_table = table
        self.support_sizes = np.fromiter(
            map(len, indices), dtype=np.int64, count=len(indices)
        )
        # Selection dedup compares these ids, and a shared choice
        # carries its representative's label objects: key them exactly.
        values_ids: Dict[str, int] = {}
        self.support_ids = np.asarray(
            [values_ids.setdefault(repr(key), len(values_ids))
             for key in labels],
            dtype=np.float64,
        )
        self.num_values = np.asarray(
            [variable.num_values for variable in representatives],
            dtype=np.int64,
        )

    def _key_sides(self, rank: int) -> tuple:
        """The ledger keys of a rank-``rank`` op, as positions in its
        events: the whole event set under the naive rule, event pairs
        under the rank-2 and rank-3 rules."""
        if self.kind == "naive":
            return (tuple(range(rank)),)
        return _PAIR_SIDES.get(rank, ())

    def _bind_ledger(self, np, num_events: int) -> None:
        """One phi slot per (ledger key, member event), over all variables.

        A ledger key is a set of events, as its sorted row of event
        indices; equal rows share slots, numbered by
        :func:`_number_rows`.  The naive rule keys each variable's whole
        event set; the rank-2 and rank-3 rules key event pairs (one per
        rank-2 variable, three per rank-3 variable), so the rank-2
        variables and triangle sides on one dependency edge share its
        entry.  A variable's slots are in bookkeeping order.

        Keys are numbered ``0 .. num_keys - 1`` in slot order, and key
        ``k``'s slots are ``key_ptr[k]:key_ptr[k + 1]``; ``slot_key`` and
        ``slot_event`` name each slot's key and event.
        """
        var_ptr = self.var_ptr
        ranks = np.diff(var_ptr)
        self.apply_widths = np.zeros(len(ranks), dtype=np.int64)
        # key width -> (variables, first apply column, key rows) per side
        sides_by_width: Dict[int, list] = {}
        for rank in sort_unique(ranks).tolist():
            members = np.flatnonzero(ranks == rank)
            sides = self._key_sides(rank)
            self.apply_widths[members] = sum(map(len, sides))
            for index, side in enumerate(sides):
                rows = self.var_events[var_ptr[members][:, None] + side]
                sides_by_width.setdefault(len(side), []).append(
                    (members, index * len(side), rows)
                )
        self.var_apply = np.full(
            (len(ranks), max(int(self.apply_widths.max(initial=0)), 1)),
            -1,
            dtype=np.int64,
        )
        base = first_key = 0
        slot_keys, slot_events, key_widths = [], [], []
        for width, sides in sorted(sides_by_width.items()):
            if width == 0:
                continue
            rows = np.concatenate([side[2] for side in sides])
            ids, count = _number_rows(np, rows, num_events)
            distinct = np.empty((count, width), dtype=np.int64)
            distinct[ids] = rows
            self.ledger_keys.append((base, first_key, distinct))
            slot_keys.append(
                np.repeat(np.arange(first_key, first_key + count), width)
            )
            slot_events.append(distinct.ravel())
            key_widths.append(np.full(count, width, dtype=np.int64))
            slots = base + ids[:, None] * width + np.arange(width)
            offset = 0
            for members, column, _rows in sides:
                self.var_apply[members, column:column + width] = slots[
                    offset:offset + len(members)
                ]
                offset += len(members)
            base += count * width
            first_key += count
        self.ledger_size = base
        self.num_keys = first_key
        empty = np.zeros(0, dtype=np.int64)
        self.slot_key = np.concatenate(slot_keys or [empty])
        self.slot_event = np.concatenate(slot_events or [empty])
        self.key_ptr = np.zeros(first_key + 1, dtype=np.int64)
        np.cumsum(
            np.concatenate(key_widths or [empty]), out=self.key_ptr[1:]
        )

    def ledger_of_variables(self) -> list:
        """Per variable row: ``(key, apply slots)``, or ``None`` for a
        variable that writes no ledger entry.  The scalar path's lookup;
        under the rank-2 and naive rules a variable writes one key."""
        if self.var_ledger is None:
            slot_key = self.slot_key.tolist()
            self.var_ledger = [
                (slot_key[row[0]], tuple(row[:width])) if width else None
                for row, width in zip(
                    self.var_apply.tolist(), self.apply_widths.tolist()
                )
            ]
        return self.var_ledger

    # -- kernels ---------------------------------------------------------
    def _register(self, np, instance, rows) -> None:
        """Give every event of ``rows`` without one a kernel and a slot."""
        new = rows[self.kernel_ids[rows] < 0]
        if not len(new):
            return
        events = instance.events
        shapes = self.event_shapes[new]
        shared = self.shape_hinted[shapes]
        if planes().artifacts != "on":
            shared[:] = False
        for shape in sort_unique(shapes[shared]).tolist():
            in_shape = shapes == shape
            kernel_id = self.shape_kernels.get(shape)
            if kernel_id is None:
                first = events[int(self.shape_first[shape])]
                kernel_id = -1
                if first.compiled_kernel() is not None:
                    kernel_id = self._add_kernel(first)
                self.shape_kernels[shape] = kernel_id
            if kernel_id < 0:
                # The shape's first event has no kernel: the shape's
                # events register one by one.
                shared &= ~in_shape
                continue
            members = new[shared & in_shape]
            _require_kernel_gate(
                np,
                list(map(events.__getitem__, members.tolist())),
                self.kernel_objects[kernel_id].num_outcomes,
            )
            self.kernel_ids[members] = kernel_id
            self.slots[members] = self.kernel_slots[kernel_id]
        for index in new[~shared].tolist():
            kernel_id = self._add_kernel(events[index])
            self.kernel_ids[index] = kernel_id
            self.slots[index] = self.kernel_slots[kernel_id]

    def _add_kernel(self, event) -> int:
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
        self.kernel_objects.append(kernel)
        self.kernel_slots.append(slot)
        return len(self.kernel_objects) - 1

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

    def _pin_table(self, np, site_event, site_pos, site_support):
        """``(table, row per site)``: each site's pin index per support
        position, as rows of a zero-padded table.

        A pin map depends only on the event's shape, the scope position
        and the variable's support, so each distinct triple asks its
        kernel's ``support_map`` once per template.
        """
        positions, supports = self.pin_span
        codes = (
            self.event_shapes[site_event] * positions + site_pos
        ) * supports + site_support
        distinct = sort_unique(codes)
        rows = np.searchsorted(distinct, codes)
        first = _first_of(np, rows, len(distinct))
        table = np.zeros(
            (len(distinct), self.support_table.shape[1]), dtype=np.int64
        )
        for row, code in enumerate(distinct.tolist()):
            pin_map = self.pin_maps.get(code)
            if pin_map is None:
                site = int(first[row])
                event = int(site_event[site])
                labels = self.support_labels[int(site_support[site])]
                kernel = self.kernel_objects[int(self.kernel_ids[event])]
                pin_map = kernel.support_map(int(site_pos[site]), labels)
                if pin_map is None:
                    raise _NotVectorizable(
                        f"support {labels!r} not indexable in event "
                        f"{self.names[event]!r}"
                    )
                self.pin_maps[code] = pin_map
            table[row, : len(pin_map)] = pin_map
        return table, rows

    def _op_columns(self, np, ranks, site_ptr, site_event, op_var):
        """Per op: its event names, its ledger keys (frozensets of event
        names) and its apply slots, the last two ``None`` for an op
        without a ledger entry.  Built per rank from whole name columns.
        """
        num_ops = len(ranks)
        op_names: List[Optional[tuple]] = [None] * num_ops
        keys: List[Optional[tuple]] = [None] * num_ops
        applies: List[Optional[tuple]] = [None] * num_ops
        for rank in sort_unique(ranks).tolist():
            members = np.flatnonzero(ranks == rank)
            first = site_ptr[members]
            columns = [
                list(
                    map(
                        self.names.__getitem__,
                        site_event[first + position].tolist(),
                    )
                )
                for position in range(rank)
            ]
            member_names = list(zip(*columns))
            width = int(self.apply_widths[op_var[members[0]]])
            if width == 0:
                member_keys = member_slots = repeat(None)
            else:
                member_keys = zip(
                    *[
                        list(map(frozenset, zip(*[columns[j] for j in side])))
                        for side in self._key_sides(rank)
                    ]
                )
                member_slots = map(
                    tuple, self.var_apply[op_var[members], :width].tolist()
                )
            for index, names, key, slots in zip(
                members.tolist(), member_names, member_keys, member_slots
            ):
                op_names[index] = names
                keys[index] = key
                applies[index] = slots
        return op_names, keys, applies

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
        """Lower ``cells`` from the bound columns, as whole arrays.

        Ops are flat in plan order; an op's sites are its variable's
        (event, scope position) pairs.  Wave ``j`` holds the ``j``-th op
        of every cell, its lanes in cell order.  Only the op records the
        commit loop reads are built per op.
        """
        np = _numpy()
        if self.offsets is None:
            self._bind(np, instance)
        naive = self.kind == "naive"
        cell_ops = list(map(attrgetter("ops"), cells))
        ops = list(chain.from_iterable(cell_ops))
        num_ops = len(ops)
        variable_names = list(map(attrgetter("variable"), ops))
        try:
            op_var = np.fromiter(
                map(self.row_of.__getitem__, variable_names),
                dtype=np.int64,
                count=num_ops,
            )
        except KeyError as error:
            raise _NotVectorizable(
                f"no variable named {error.args[0]!r}"
            ) from None
        starts = self.var_ptr[op_var]
        ranks = self.var_ptr[op_var + 1] - starts
        if not naive and num_ops and int(ranks.max()) > 3:
            raise _NotVectorizable("an op of rank above 3")
        site_ptr = np.zeros(num_ops + 1, dtype=np.int64)
        np.cumsum(ranks, out=site_ptr[1:])
        sites = concatenated_ranges(starts, ranks)
        site_event = self.var_events[sites]
        site_pos = self.var_positions[sites]
        site_op = np.repeat(np.arange(num_ops, dtype=np.int64), ranks)
        site_slot = np.arange(len(sites), dtype=np.int64) - site_ptr[site_op]
        read_rows = sort_unique(site_event)
        self._register(np, instance, read_rows)
        op_support = self.var_supports[op_var]
        pin_table, site_pin = self._pin_table(
            np, site_event, site_pos, op_support[site_op]
        )
        op_apply = self.var_apply[op_var]
        if num_ops:
            self.max_values = max(
                self.max_values, int(self.num_values[op_support].max())
            )

        variables = list(map(self.variables.__getitem__, op_var.tolist()))
        values = list(
            map(self.support_labels.__getitem__, op_support.tolist())
        )
        op_names, keys, applies = self._op_columns(
            np, ranks, site_ptr, site_event, op_var
        )
        records = list(
            zip(variables, op_names, ranks.tolist(), values, keys, applies)
        )
        counts = np.fromiter(
            map(len, cell_ops), dtype=np.int64, count=len(cell_ops)
        )
        cell_ptr = np.zeros(len(cell_ops) + 1, dtype=np.int64)
        np.cumsum(counts, out=cell_ptr[1:])
        cell_bounds = cell_ptr.tolist()

        section = _Section()
        section.cells = list(
            zip(
                map(attrgetter("owner"), cells),
                map(
                    records.__getitem__,
                    map(slice, cell_bounds[:-1], cell_bounds[1:]),
                ),
            )
        )
        section.memo = LRUCache(MEMO_LIMIT)
        section.num_ops = num_ops
        section.ops = records
        section.names = variable_names
        section.read_rows = read_rows
        applied = op_apply[op_apply >= 0]
        section.slot_list = sort_unique(applied)
        section.touch_keys = _first_appearances(np, self.slot_key[applied])

        # Waves: the j-th op of every cell, lanes in cell order.
        op_cell = np.repeat(np.arange(len(cell_ops), dtype=np.int64), counts)
        op_wave = np.arange(num_ops, dtype=np.int64) - cell_ptr[op_cell]
        num_waves = int(counts.max(initial=0))
        lane_order = np.argsort(op_wave, kind="stable")
        wave_ptr = np.searchsorted(
            op_wave[lane_order], np.arange(num_waves + 1)
        )
        lane_of = np.empty(num_ops, dtype=np.int64)
        lane_of[lane_order] = (
            np.arange(num_ops, dtype=np.int64) - wave_ptr[op_wave[lane_order]]
        )
        site_wave = op_wave[site_op]
        site_order = np.argsort(site_wave, kind="stable")
        site_wave_ptr = np.searchsorted(
            site_wave[site_order], np.arange(num_waves + 1)
        )
        section.waves = []
        for wave_index in range(num_waves):
            lane_ops = lane_order[
                wave_ptr[wave_index]:wave_ptr[wave_index + 1]
            ]
            wave_sites = site_order[
                site_wave_ptr[wave_index]:site_wave_ptr[wave_index + 1]
            ]
            lane_support = op_support[lane_ops]
            lane_ranks = ranks[lane_ops]
            sizes = self.support_sizes[lane_support]
            wave = _TWave()
            wave.count = len(lane_ops)
            wave.cell_of = op_cell[lane_ops].tolist()
            wave.max_rank = max(int(lane_ranks.max(initial=1)), 1)
            max_support = max(int(sizes.max(initial=1)), 1)
            wave.max_support = max_support
            support_matrix = self.support_table[lane_support, :max_support]
            mask_matrix = np.arange(max_support) < sizes[:, None]
            wave.q_op = lane_of[site_op[wave_sites]]
            wave.q_event = site_event[wave_sites]
            wave.q_target = site_pos[wave_sites]
            wave.q_kernel = self.slots[wave.q_event]
            wave.q_slot = site_slot[wave_sites]
            wave.q_names = list(
                map(self.names.__getitem__, wave.q_event.tolist())
            )
            wave.q_support = support_matrix[wave.q_op]
            wave.site_maps = pin_table[site_pin[wave_sites], :max_support]
            wave.site_arange = np.arange(len(wave_sites))
            wave.groups = []
            # One group per rank, in order of first lane.
            wave_ranks = sort_unique(lane_ranks)
            first_lanes = _first_of(
                np, np.searchsorted(wave_ranks, lane_ranks), len(wave_ranks)
            )
            for rank in wave_ranks[np.argsort(first_lanes)].tolist():
                lanes = np.flatnonzero(lane_ranks == rank)
                group_ops = lane_ops[lanes]
                group_op_list = group_ops.tolist()
                group = _TGroup()
                group.rule = "rankr" if naive else f"rank{rank}"
                group.rank = rank
                group.lanes = lanes
                group.lane_list = lanes.tolist()
                group.values_id = self.support_ids[
                    op_support[group_ops]
                ].reshape(len(lanes), 1)
                group.variables = list(
                    map(variables.__getitem__, group_op_list)
                )
                group.values = list(map(values.__getitem__, group_op_list))
                group.mask = mask_matrix[lanes]
                width = int(self.apply_widths[op_var[group_ops[0]]])
                if width == 0:
                    group.gather = None
                    group.apply = None
                else:
                    group.apply = op_apply[group_ops, :width]
                    group.gather = (
                        group.apply[:, np.asarray(_RANK3_GATHER)]
                        if not naive and rank == 3
                        else group.apply
                    )
                wave.groups.append(group)
            section.waves.append(wave)
        self.ensure_stack()
        return section


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


def ledger_template(instance, kind: str) -> _Template:
    """The instance's template with its phi slot layout bound: the
    layout the rank-2 and naive fixers keep their weight ledger in."""
    template = _template_for(instance, kind)
    template.bind_ledger(instance)
    return template


# ----------------------------------------------------------------------
# Parent side: per-fixer run state
# ----------------------------------------------------------------------
class _RunState:
    """The mutable arrays one fixer's solve carries through a template.

    ``pending`` holds the class most recently decided but not yet
    committed, as ``(cells, parts)`` with one ``(section, memo entry or
    None, live ledger refs per op or None)`` part per section — one
    section decided in this process, or several chunk sections decided
    in process workers (no memo entry); decisions mutate the pins matrix
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
        # Per-section live P* entries (rank 3, :func:`section_refs`);
        # the entry dicts are created once per fixer and mutated in
        # place, so the resolution is stable for this fixer's lifetime.
        self.refs_cache: Dict[int, list] = {}

    def ensure_capacity(self, np) -> None:
        template = self.template
        shape = (len(template.names), max(template.stack.width, 1))
        pins = self.pins
        if pins is None or pins.shape != shape:
            grown = np.full(shape, -1, dtype=np.int64)
            if pins is not None:
                grown[: pins.shape[0], : pins.shape[1]] = pins
            self.pins = grown
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
        _pin_assignment(np, state.pins, template, values_map)
    if state.steps_seen or values_map:
        fixer._fill_phi(state.phi, template)
    return state


def _pin_assignment(np, pins, template: _Template, values_map) -> None:
    """Pin every fixed variable in the rows of the registered events."""
    offsets = template.offsets
    scope_vars = template.scope_vars
    variable_names = [variable.name for variable in template.variables]
    fixed = np.fromiter(
        map(values_map.__contains__, variable_names),
        dtype=bool,
        count=len(variable_names),
    )
    event_of = np.repeat(
        np.arange(len(template.names), dtype=np.int64), np.diff(offsets)
    )
    kernel_ids = template.kernel_ids
    sites = np.flatnonzero(fixed[scope_vars] & (kernel_ids[event_of] >= 0))
    for site, event in zip(sites.tolist(), event_of[sites].tolist()):
        position = site - int(offsets[event])
        name = variable_names[int(scope_vars[site])]
        kernel = template.kernel_objects[int(kernel_ids[event])]
        pin = kernel.value_index(position, values_map[name])
        if pin is None:
            raise _NotVectorizable(
                f"value of {name!r} outside the support of "
                f"event {template.names[event]!r}"
            )
        pins[event, position] = pin


def _resolve_refs(section: _Section, fixer) -> list:
    """Live P* entries per op (flat, plan order), for ``commit_class``.

    The rank-3 fixer's ``_ledger_ref`` hook resolves each op on the
    template's precomputed keys.  A key the fixer's ledger lacks (a
    rank-3 op with no dependency edge) sends the class to the scalar
    path, which raises the proper error.
    """
    ledger_ref = fixer._ledger_ref
    try:
        return [
            ledger_ref(op[TOP_VARIABLE], op[TOP_NAMES], op[TOP_KEYS])
            for op in section.ops
        ]
    except KeyError as error:
        raise _NotVectorizable(
            f"no dependency edge {sorted(map(repr, error.args[0]))}"
        ) from None


def section_refs(state: _RunState, section: _Section, fixer) -> list:
    """:func:`_resolve_refs`, once per section and run state."""
    refs = state.refs_cache.get(id(section))
    if refs is None:
        refs = _resolve_refs(section, fixer)
        state.refs_cache[id(section)] = refs
    return refs


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
    if wave.q_event.shape[0]:
        pins[wave.q_event, wave.q_target] = wave.site_maps[
            wave.site_arange, positions[wave.q_op]
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
    selection discipline through ``vector_kind`` and opens the section
    on its ledger through ``_open_section``.
    """
    if planes().decide == "scalar":
        return None
    try:
        template = _template_for(instance, fixer.vector_kind)
        section = template.section_for(instance, cells)
        state = _live_state(fixer, template)
        refs = fixer._open_section(state, section)
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
            fixer._open_section(state, section)
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
            (section, None, fixer._open_section(state, section))
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
