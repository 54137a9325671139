"""The fixing step the rank-2, rank-3 and naive rank-r fixers share.

Theorem 1.1, Theorem 1.3 and the naive rank-r baseline all take the
same step: pick a value by a weighted ``Inc`` rule, write the new
weights into a per-edge ledger, and certify ``p_v`` times the product of
the event's weights.  :class:`Fixer` owns that step once — the state,
``decide``/``commit``, the whole-class ``decide_class``/``commit_class``
split the schedulers drive, and ``run`` — and each subclass supplies only
what is its own:

* its precondition check (in ``__init__``);
* its selection rule (:meth:`Fixer._select`);
* its ledger: ``_ledger_ref`` (what an op writes, first-touching it),
  ``_write`` (write one choice there), ``local_weights`` (what a
  decision reads), ``certified_bounds`` and ``check_invariant``;
* the ledger's side of the vector plane: ``_fill_phi``,
  ``_open_section`` and ``_commit_decided``.

The rank-2 edge ledger and the naive hyperedge ledger are one float64
array in the vector template's phi slot layout
(:class:`WeightLedgerFixer`): a scalar op writes its slots, and a
vector-decided class is one scatter from the run state's ``phi``, with
no per-op ledger entries or refs.  The rank-3 fixer keeps property P*'s
per-edge entries (:class:`~repro.core.pstar.PStarState`) and resolves
them per op.

Every commit, per-op or whole-class, runs through one loop
(:meth:`Fixer._commit_ops`), with recorder events and invariant checks
inside it, and every :class:`~repro.core.results.StepRecord` is built by
:func:`step_record`.  The loop takes the records ready-made: a class
the vector plane replays from its section memo reuses the records the
memo entry cached on its first commit, and the assignment's checks
(value in support, variable not yet fixed) run once per class, before
the loop.
"""

from __future__ import annotations

import time
from itertools import chain, repeat
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import vector
from repro.core.vector import TOP_APPLY, TOP_NAMES, TOP_VARIABLE
from repro.core.results import FixingResult, StepRecord, make_step_record
from repro.core.selection import (
    Decision,
    Rank1Choice,
    Rank2Choice,
    Rank3Choice,
    RankRChoice,
    select_rank1,
    select_rank2,
    select_rank3,
)
from repro.errors import PStarViolationError
from repro.graph.csr import concatenated_ranges
from repro.lll.instance import LLLInstance
from repro.obs.recorder import active as _obs_active
from repro.probability import PartialAssignment
from repro.probability.assignment import refix_error, support_error

_UNSET = object()
_apply_slots = itemgetter(TOP_APPLY)


# ----------------------------------------------------------------------
# Step records: one builder per choice type
# ----------------------------------------------------------------------
def _rank1_step(variable, names, choice: Rank1Choice) -> StepRecord:
    return make_step_record(
        variable.name,
        choice.value,
        names,
        (choice.increase,),
        choice.slack,
        choice.num_good_values,
        variable.num_values,
    )


def _weighted_step(variable, names, choice) -> StepRecord:
    """Rank-2 pair rule and naive rank-r rule: slack is the budget left."""
    return make_step_record(
        variable.name,
        choice.value,
        names,
        choice.increases,
        choice.slack,
        choice.num_good_values,
        variable.num_values,
    )


def _rank3_step(variable, names, choice: Rank3Choice) -> StepRecord:
    """Rank-3 ``S_rep`` rule: slack is the representability margin."""
    return make_step_record(
        variable.name,
        choice.value,
        names,
        choice.increases,
        max(choice.margin, 0.0),
        choice.num_good_values,
        variable.num_values,
    )


_STEP_BUILDERS = {
    Rank1Choice: _rank1_step,
    Rank2Choice: _weighted_step,
    RankRChoice: _weighted_step,
    Rank3Choice: _rank3_step,
}


def step_record(variable, names: Tuple[Hashable, ...], choice) -> StepRecord:
    """The trace record of fixing ``variable`` by ``choice``.

    ``names`` are the affected events' names in bookkeeping order.  The
    fixers' commit loop and the LOCAL protocol both build their records
    here.
    """
    return _STEP_BUILDERS[type(choice)](variable, names, choice)


def _class_records(ops, choices) -> List[StepRecord]:
    """The step records of ``ops`` fixed by ``choices``, in op order.

    ``ops`` yield ``(variable, event names, ...)`` (a template op record
    or a plain pair).  Runs the assignment's support check once per op,
    raising what :meth:`PartialAssignment.fix` raises.
    """
    records = []
    for op, choice in zip(ops, choices):
        variable = op[TOP_VARIABLE]
        if choice.value not in variable:
            raise support_error(variable.name, choice.value)
        records.append(step_record(variable, op[TOP_NAMES], choice))
    return records


def select_by_rank(variable, events, weights, assignment: PartialAssignment):
    """The paper's rule for the variable's rank.

    ``Inc <= 1`` for rank 1, the weighted pair rule for rank 2 and the
    ``S_rep`` rule of Lemma 3.2 for rank 3.  The rank-2 and rank-3
    fixers and the LOCAL protocol all decide here.
    """
    if len(events) == 1:
        return select_rank1(variable, events[0], assignment)
    if len(events) == 2:
        return select_rank2(variable, events, weights, assignment)
    return select_rank3(variable, events, weights, assignment)


# ----------------------------------------------------------------------
# The shared fixer core
# ----------------------------------------------------------------------
class Fixer:
    """Base of the deterministic fixers: state, decide/commit and run.

    Subclasses set :attr:`vector_kind` and :attr:`obs_component`, check
    their preconditions before calling ``Fixer.__init__``, and implement
    the ledger hooks listed in the module docstring.
    """

    #: Selection discipline on the vector decide plane.
    vector_kind: str = ""
    #: Recorder component of the ``fix`` / ``run_complete`` events.
    obs_component: str = "fixer"

    def __init__(
        self, instance: LLLInstance, validate_invariant: bool = False
    ) -> None:
        self._instance = instance
        self._validate = validate_invariant
        self._assignment = PartialAssignment()
        self._steps: List[StepRecord] = []
        #: Run state of the vector decide plane (:mod:`repro.core.vector`);
        #: ``None`` until a class is batch-decided.
        self._vector_state = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def instance(self) -> LLLInstance:
        """The instance being fixed."""
        return self._instance

    @property
    def assignment(self) -> PartialAssignment:
        """The (partial) assignment built so far."""
        return self._assignment

    @property
    def steps(self) -> Tuple[StepRecord, ...]:
        """Trace of the fixing steps performed so far."""
        return tuple(self._steps)

    def is_fixed(self, variable_name: Hashable) -> bool:
        """Whether the named variable has already been fixed."""
        return self._assignment.is_fixed(variable_name)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def local_weights(self, variable, events: Sequence) -> Tuple[float, ...]:
        """The ledger values a decision on ``variable`` (affecting
        ``events``) reads, as Python floats.

        Together with the events' conditional masses this is the entire
        state a decision depends on, which is what makes the vector
        plane's lane deduplication and class memo sound.  Reading them
        first-touches the op's ledger entries, as a write would.
        """
        raise NotImplementedError

    def _ledger_ref(self, variable, names: Tuple[Hashable, ...]):
        """What an op on ``variable`` (affecting ``names``) writes.

        ``None`` when the op writes nothing, else what :meth:`_write`
        takes.  The first call for a ledger entry touches it: the
        certificate multiplies each event's weights in first-touch
        order, so every lookup (a ``decide`` that is never committed
        included) counts.
        """
        raise NotImplementedError

    def _write(self, ref, names: Tuple[Hashable, ...], choice):
        """Write ``choice``'s new weights at ``ref``.

        Returns ``None``, or — when the values had to be clamped — the
        written values in the op's apply-slot order, so the caller can
        re-sync the vector plane's flat ledger.
        """
        raise NotImplementedError

    def certified_bounds(self) -> Dict[Hashable, float]:
        """Per-event bound ``p_v * product of the event's ledger weights``."""
        raise NotImplementedError

    def check_invariant(self) -> None:
        """Raise :class:`PStarViolationError` if the bookkeeping is broken."""
        raise NotImplementedError

    def _fill_phi(self, phi, template) -> None:
        """Copy the live ledger into a vector run state's ``phi`` array
        (``template``'s slot layout)."""
        raise NotImplementedError

    def _open_section(self, state, section):
        """Open a lowered section on the ledger when it is decided.

        Touches the section's ledger entries in plan order, as per-op
        decides would, and returns the live refs per op the class
        commit writes through, or ``None`` when it writes none.
        """
        raise NotImplementedError

    def _commit_decided(self, records, ops, choices, parts, phi) -> None:
        """Commit a vector-decided class through :meth:`_commit_ops`.

        ``records``, ``ops`` and ``choices`` are flat in plan order,
        ``parts`` the pending ``(section, memo entry, refs)`` triples and
        ``phi`` the run state's post-decision ledger array.
        """
        raise NotImplementedError

    def _select(self, variable, events, weights):
        """The selection rule; the paper's rule for the variable's rank."""
        return select_by_rank(variable, events, weights, self._assignment)

    def _observe_step(self, recorder, record: StepRecord, ref) -> None:
        """Per-step metrics beyond the shared span, counter and event."""
        recorder.observe(self.obs_component, "step_slack", record.slack)

    # ------------------------------------------------------------------
    # Fixing
    # ------------------------------------------------------------------
    def decide(self, variable_name: Hashable) -> Decision:
        """Compute (without committing) the fixing decision for a variable.

        Pure with respect to the ledger: repeated calls return the same
        decision until a :meth:`commit` changes the state.  Raises
        :class:`NoGoodValueError` if no value stays within budget, which
        the fixer's theorem rules out on instances meeting its criterion.
        """
        if self._assignment.is_fixed(variable_name):
            raise PStarViolationError(
                f"variable {variable_name!r} is already fixed"
            )
        variable = self._instance.variable(variable_name)
        events = tuple(self._instance.events_of_variable(variable_name))
        choice = self._select(
            variable, events, self.local_weights(variable, events)
        )
        return Decision(variable=variable, events=events, choice=choice)

    def commit(self, decision: Decision) -> StepRecord:
        """Apply a decision: update the ledger, assignment and trace."""
        op = self._keyed_op(decision.variable, decision.events, decision.choice)
        self._check_unfixed((op[0],))
        self._commit_ops((op,), None)
        return self._steps[-1]

    def fix_variable(self, variable_name: Hashable) -> StepRecord:
        """Fix one variable: ``commit(decide(variable_name))``."""
        recorder = _obs_active()
        start = time.perf_counter_ns() if recorder is not None else 0
        record = self.commit(self.decide(variable_name))
        if recorder is not None:
            recorder.record_span(
                self.obs_component, "fix", time.perf_counter_ns() - start
            )
        return record

    def decide_class(self, cells) -> Optional[List[list]]:
        """Batched pure decide for a whole color class.

        Returns one choice list per cell (choices in op order), computed
        on the vector plane (:mod:`repro.core.vector`) and bit-identical
        to looping :meth:`decide`/:meth:`commit` over the class in plan
        order.  ``None`` means the class is not vectorizable (scalar
        decide mode, events without compiled kernels) and the caller
        should keep its per-op loop.  Never mutates the ledger; the run
        state it parks is confirmed or discarded by :meth:`commit_class`.
        """
        return vector.decide_class_choices(self, cells, self._instance)

    def commit_class(self, cells, class_choices) -> None:
        """Commit a class's worth of decided choices, in plan order.

        When this fixer just batch-decided ``cells`` the ledger takes the
        vector plane's post-decision state (:meth:`_commit_decided`);
        otherwise each op goes through a key lookup, which also drops
        the run state, so the next batch rebuilds it from the ledger.
        """
        state = vector.cached_commit(self, cells)
        if state is None:
            self._vector_state = None
            instance = self._instance
            ops = [
                self._keyed_op(
                    instance.variable(op.variable),
                    instance.events_of_variable(op.variable),
                    choice,
                )
                for cell, choices in zip(cells, class_choices)
                for op, choice in zip(cell.ops, choices)
            ]
            self._check_unfixed([op[0] for op in ops])
            self._commit_ops(ops, None)
            return
        _cells, parts = state.pending
        if len(parts) == 1:
            section, entry, _refs = parts[0]
            ops, names = section.ops, section.names
        else:
            entry = None
            ops = [op for part in parts for op in part[0].ops]
            names = [name for part in parts for name in part[0].names]
        if entry is not None and entry.choices is class_choices:
            # A decided batch's records are a pure function of its memo
            # entry: build them on its first commit only.
            if entry.records is None:
                entry.records = _class_records(
                    ops, chain.from_iterable(class_choices)
                )
            records = entry.records
        else:
            records = _class_records(ops, chain.from_iterable(class_choices))
        self._check_unfixed(records, names)
        self._commit_decided(
            records,
            ops,
            chain.from_iterable(class_choices),
            parts,
            state.phi,
        )
        state.pending = None

    def _keyed_op(self, variable, events, choice) -> tuple:
        """A commit-loop op whose ledger entry comes from a key lookup."""
        names = tuple(event.name for event in events)
        (record,) = _class_records(((variable, names),), (choice,))
        return (record, self._ledger_ref(variable, names), None, choice)

    def _check_unfixed(self, records, names=None) -> None:
        """The assignment's re-fix check, once for a batch of records.

        Raises the error :meth:`PartialAssignment.fix` raises for the
        first record whose variable is already fixed to a different
        value (re-fixing to the same value is allowed there too).
        ``names`` are the records' variable names when the caller holds
        them.
        """
        values = self._assignment._values
        if not values:
            return
        if names is None:
            names = [record.variable for record in records]
        if values.keys().isdisjoint(names):
            return
        for record in records:
            existing = values.get(record.variable, _UNSET)
            if existing is not _UNSET and existing != record.value:
                raise refix_error(record.variable, existing, record.value)

    def _commit_ops(self, ops: Iterable[tuple], phi) -> None:
        """The one commit loop.

        ``ops`` yields ``(step record, ledger ref or None, apply slots,
        choice)`` per op, in plan order, whose records have passed the
        support and re-fix checks (:func:`_class_records`,
        :meth:`_check_unfixed`).  Per op: a ledger write when the op
        has a ref, one assignment store, one step append.  ``phi`` is
        the vector plane's flat ledger (or ``None``); values the ledger
        write had to clamp are copied back into it at the op's apply
        slots.
        """
        recorder = _obs_active()
        validate = self._validate
        write = self._write
        store = self._assignment._values.__setitem__
        append = self._steps.append
        start = 0
        for record, ref, slots, choice in ops:
            if recorder is not None:
                start = time.perf_counter_ns()
            if ref is not None:
                clamped = write(ref, record.events, choice)
                if clamped is not None and phi is not None:
                    for slot, value in zip(slots, clamped):
                        phi[slot] = value
            store(record.variable, record.value)
            append(record)
            if recorder is not None:
                self._observe_commit(recorder, record, ref, start)
            if validate:
                self.check_invariant()

    def _observe_commit(self, recorder, record, ref, start) -> None:
        component = self.obs_component
        rank = len(record.events)
        recorder.record_span(
            component, "commit", time.perf_counter_ns() - start
        )
        recorder.count(component, f"rank{rank}_fixes")
        self._observe_step(recorder, record, ref)
        recorder.event(
            component,
            "fix",
            step=len(self._steps) - 1,
            variable=record.variable,
            value=record.value,
            rank=rank,
            slack=record.slack,
            num_good_values=record.num_good_values,
            num_values=record.num_values,
        )

    def run(self, order: Optional[Iterable[Hashable]] = None) -> FixingResult:
        """Fix every variable (in ``order`` if given) and return the result.

        Variables ``order`` leaves out are fixed afterwards in
        construction order, so after a scheduler has fixed every
        variable ``run(order=())`` only assembles the result.
        """
        instance = self._instance
        if order is None:
            order = instance.variable_names
        for name in order:
            self.fix_variable(name)
        # The fixer fixes instance variables only, so a full assignment
        # leaves nothing to scan for.
        if len(self._assignment) < instance.num_variables:
            for name in instance.variable_names:
                if not self._assignment.is_fixed(name):
                    self.fix_variable(name)
        result = FixingResult(
            assignment=self._assignment,
            steps=tuple(self._steps),
            certified_bounds=self.certified_bounds(),
        )
        recorder = _obs_active()
        if recorder is not None:
            recorder.event(
                self.obs_component,
                "run_complete",
                steps=result.num_steps,
                max_certified_bound=result.max_certified_bound,
                min_slack=result.min_slack,
            )
        return result


# ----------------------------------------------------------------------
# The weight ledger of the rank-2 and naive fixers
# ----------------------------------------------------------------------
class WeightLedgerFixer(Fixer):
    """A fixer whose ledger is one weight per (ledger key, member event).

    The rank-2 edge ledger (Theorem 1.1) and the naive hyperedge ledger
    keep their weights in one float64 array in the phi slot layout of
    the instance's vector template (``_Template._bind_ledger``): a key
    is a dependency edge (rank 2) or a variable's whole event set
    (naive), its member events' weights are consecutive slots, and every
    weight starts at 1.  The certificate multiplies each event's weights
    in the order their keys were first touched, so ``_touched`` keeps
    each key's first-touch number (``-1`` while untouched, when the key
    has no weights to certify): the products are the floats the per-key
    entries gave, bit for bit.
    """

    #: What a ledger key is called in invariant errors.
    key_noun = "edge"

    def __init__(
        self, instance: LLLInstance, validate_invariant: bool = False
    ) -> None:
        super().__init__(instance, validate_invariant)
        template = vector.ledger_template(instance, self.vector_kind)
        self._template = template
        self._ledger = np.ones(template.ledger_size, dtype=np.float64)
        self._touched = np.full(template.num_keys, -1, dtype=np.int64)
        self._touches = 0
        # Via the instance (and hence the artifact store's parameters
        # tier): same-shape instances share one probability enumeration.
        # Its keys are in event order, the template's ``names``.
        self._initial = np.fromiter(
            instance.event_probabilities().values(),
            dtype=np.float64,
            count=len(template.names),
        )

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def _touch(self, keys) -> None:
        """First-touch the untouched ``keys`` (distinct, in touch order)."""
        touched = self._touched
        fresh = keys[touched[keys] < 0]
        if len(fresh):
            start = self._touches
            self._touches = start + len(fresh)
            touched[fresh] = np.arange(start, self._touches)

    def _ledger_ref(self, variable, names):
        """The op's slots (``None`` without a key), touching its key."""
        template = self._template
        entry = template.ledger_of_variables()[template.row_of[variable.name]]
        if entry is None:
            return None
        key, slots = entry
        touched = self._touched
        if touched[key] < 0:
            touched[key] = self._touches
            self._touches += 1
        return slots

    def local_weights(self, variable, events: Sequence) -> Tuple[float, ...]:
        """The weights of the op's key, in bookkeeping order."""
        slots = self._ledger_ref(variable, None)
        if slots is None:
            return ()
        return tuple(map(self._ledger.item, slots))

    def _write(self, ref, names, choice):
        ledger = self._ledger
        for slot, weight in zip(ref, choice.new_weights):
            ledger[slot] = weight

    # ------------------------------------------------------------------
    # Vector plane
    # ------------------------------------------------------------------
    def _fill_phi(self, phi, template) -> None:
        phi[: len(self._ledger)] = self._ledger

    def _open_section(self, state, section):
        self._touch(section.touch_keys)
        return None

    def _commit_decided(self, records, ops, choices, parts, phi) -> None:
        """The run state's post-decision slots are the ledger's: one
        scatter per section.  Validation checks the ledger as it stands
        after every op, so then each op writes its own slots as well."""
        refs = map(_apply_slots, ops) if self._validate else repeat(None)
        self._commit_ops(zip(records, refs, repeat(None), choices), None)
        ledger = self._ledger
        for section, _entry, _refs in parts:
            ledger[section.slot_list] = phi[section.slot_list]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _touch_order(self):
        """The touched keys, in first-touch order."""
        touched = self._touched
        keys = np.flatnonzero(touched >= 0)
        order = np.empty(len(keys), dtype=np.int64)
        order[touched[keys]] = keys
        return order

    def certified_bounds(self) -> Dict[Hashable, float]:
        """Per-event bound ``p_v * product of the event's key weights``,
        multiplied left to right in first-touch order."""
        template = self._template
        keys = self._touch_order()
        starts = template.key_ptr[keys]
        slots = concatenated_ranges(
            starts, template.key_ptr[keys + 1] - starts
        )
        bounds = self._initial.copy()
        # ``ufunc.at`` applies its operands in index order, so each
        # event's factors are multiplied in first-touch order.
        np.multiply.at(bounds, template.slot_event[slots], self._ledger[slots])
        return dict(zip(template.names, bounds.tolist()))

    def check_invariant(self) -> None:
        """Assert the weighted-budget invariant.

        Every key's weights sum to at most its size (the budget the
        averaging argument preserves), and every event's conditional
        probability is at most its certified bound.  Keys are checked
        in first-touch order, untouched keys (all weights 1) not at all.

        Raises
        ------
        PStarViolationError
            If either condition fails beyond numerical tolerance.
        """
        template = self._template
        keys = self._touch_order()
        if len(keys):
            key_ptr = template.key_ptr
            totals = np.add.reduceat(self._ledger, key_ptr[:-1])[keys]
            sizes = np.diff(key_ptr)[keys]
            # numpy and ``sum`` may round a total apart: a margin finds
            # the suspects, and the exact ``sum`` judges them.
            for key in keys[totals > sizes + (1e-7 - 1e-9)].tolist():
                start, stop = key_ptr[key], key_ptr[key + 1]
                total = sum(self._ledger[start:stop].tolist())
                if total > stop - start + 1e-7:
                    entry = frozenset(
                        map(
                            template.names.__getitem__,
                            template.slot_event[start:stop].tolist(),
                        )
                    )
                    raise PStarViolationError(
                        f"{self.key_noun} {set(entry)!r}: weights sum to "
                        f"{total} > {len(entry)}"
                    )
        bounds = self.certified_bounds()
        for event in self._instance.events:
            conditional = event.probability(self._assignment)
            if conditional > bounds[event.name] + 1e-7:
                raise PStarViolationError(
                    f"event {event.name!r}: conditional probability "
                    f"{conditional} exceeds certified bound "
                    f"{bounds[event.name]}"
                )
