"""The rank-2 deterministic fixer (Theorem 1.1 / Corollary 1.2).

Every variable affects at most two bad events, i.e. lives on an edge of
the dependency graph.  The fixer processes the variables in an arbitrary
(even adversarial) order; for the variable on edge ``{u, v}`` it chooses
the value minimising the *weighted* sum of conditional-probability
increases, where the weights are the increases accumulated so far on that
edge.  Linearity of expectation guarantees a value with weighted sum at
most 2 (the paper's claim in the proof of Theorem 1.1, in its weighted
form from Section 3.1), so after all variables are fixed every event's
probability is below ``p * 2^d < 1`` — and an exhausted probability space
with positive survival probability means no bad event occurs.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import NoGoodValueError, PStarViolationError
from repro.obs.recorder import active as _obs_active
from repro.lll.instance import LLLInstance
from repro.lll.verify import check_preconditions
from repro.core.results import FixingResult, StepRecord, make_step_record
from repro.core.selection import (
    Decision,
    Rank1Choice,
    select_rank1,
    select_rank2,
)
from repro.probability import DiscreteVariable, PartialAssignment

#: Slack below which a chosen value is treated as violating the invariant.
CONSTRAINT_TOLERANCE = 1e-9


class Rank2Fixer:
    """Sequential deterministic fixer for instances of rank at most 2.

    Parameters
    ----------
    instance:
        The LLL instance.  Every variable must affect at most two events.
    require_criterion:
        If True (default), reject instances violating ``p < 2^-d`` up
        front.  Disabling the check lets experiments probe behaviour *at*
        the threshold, where the method may legitimately fail with
        :class:`NoGoodValueError`.
    validate_invariant:
        If True, re-verify the bookkeeping invariant (each event's
        conditional probability is below its certified bound) after every
        step.  Costs extra probability computations; used by tests.
    """

    def __init__(
        self,
        instance: LLLInstance,
        require_criterion: bool = True,
        validate_invariant: bool = False,
    ) -> None:
        self._instance = instance
        check_preconditions(
            instance, max_rank=2, require_criterion=require_criterion
        )
        self._validate = validate_invariant
        self._assignment = PartialAssignment()
        # Cumulative increase weights per dependency edge and endpoint.
        # _edge_weights[frozenset({u, v})][u] is the product of the Inc
        # ratios event u has absorbed from variables on edge {u, v}.
        self._edge_weights: Dict[FrozenSet[Hashable], Dict[Hashable, float]] = {}
        # Cumulative increase for events touched by rank-1 variables.
        # Via the instance (and hence the artifact store's parameters
        # tier): same-shape instances share one probability enumeration.
        self._initial_probabilities = instance.event_probabilities()
        self._steps: List[StepRecord] = []

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
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
    # Fixing
    # ------------------------------------------------------------------
    def local_weights(self, events: Sequence) -> Tuple[float, ...]:
        """The bookkeeping weights a decision on ``events`` reads.

        ``()`` for a rank-1 variable, the pair of cumulative edge weights
        for a rank-2 variable.  Together with the events' conditional
        masses this is the *entire* state a decision depends on, which is
        what makes the vector plane's lane deduplication sound.
        """
        if len(events) < 2:
            return ()
        event_u, event_v = events
        weights = self._edge_weights.setdefault(
            frozenset((event_u.name, event_v.name)),
            {event_u.name: 1.0, event_v.name: 1.0},
        )
        return (weights[event_u.name], weights[event_v.name])

    def decide(self, variable_name: Hashable) -> Decision:
        """Compute (without committing) the fixing decision for a variable.

        Pure with respect to the bookkeeping: repeated calls return the
        same decision until a :meth:`commit` changes the state.  Raises
        :class:`NoGoodValueError` if no value keeps the weighted increase
        within budget — impossible under ``p < 2^-d`` by Theorem 1.1, so
        on checked instances this would indicate a numerical problem.
        """
        if self._assignment.is_fixed(variable_name):
            raise PStarViolationError(
                f"variable {variable_name!r} is already fixed"
            )
        variable = self._instance.variable(variable_name)
        events = self._instance.events_of_variable(variable_name)
        if len(events) == 1:
            choice = select_rank1(variable, events[0], self._assignment)
        else:
            choice = select_rank2(
                variable, events, self.local_weights(events), self._assignment
            )
        return Decision(
            variable=variable, events=tuple(events), choice=choice
        )

    def commit(self, decision: Decision) -> StepRecord:
        """Apply a decision: update the ledger, assignment and trace."""
        recorder = _obs_active()
        start = time.perf_counter_ns() if recorder is not None else 0
        variable = decision.variable
        events = decision.events
        choice = decision.choice
        if isinstance(choice, Rank1Choice):
            record = StepRecord(
                variable=variable.name,
                value=choice.value,
                events=(events[0].name,),
                increases=(choice.increase,),
                slack=choice.slack,
                num_good_values=choice.num_good_values,
                num_values=variable.num_values,
            )
        else:
            event_u, event_v = events
            weights = self._edge_weights[
                frozenset((event_u.name, event_v.name))
            ]
            weights[event_u.name] = choice.new_weights[0]
            weights[event_v.name] = choice.new_weights[1]
            record = StepRecord(
                variable=variable.name,
                value=choice.value,
                events=(event_u.name, event_v.name),
                increases=choice.increases,
                slack=choice.slack,
                num_good_values=choice.num_good_values,
                num_values=variable.num_values,
            )
        self._assignment.fix(variable, choice.value)
        self._steps.append(record)
        if recorder is not None:
            rank = len(record.events)
            recorder.record_span(
                "fixer.rank2", "commit", time.perf_counter_ns() - start
            )
            recorder.count("fixer.rank2", f"rank{rank}_fixes")
            recorder.observe("fixer.rank2", "step_slack", record.slack)
            recorder.event(
                "fixer.rank2",
                "fix",
                step=len(self._steps) - 1,
                variable=record.variable,
                value=record.value,
                rank=rank,
                slack=record.slack,
                num_good_values=record.num_good_values,
                num_values=record.num_values,
            )
        if self._validate:
            self.check_invariant()
        return record

    def fix_variable(self, variable_name: Hashable) -> StepRecord:
        """Fix one variable, preserving the bookkeeping invariant.

        Equivalent to ``commit(decide(variable_name))``; kept as the
        single-call entry point the serial paths use.
        """
        recorder = _obs_active()
        start = time.perf_counter_ns() if recorder is not None else 0
        record = self.commit(self.decide(variable_name))
        if recorder is not None:
            recorder.record_span(
                "fixer.rank2", "fix", time.perf_counter_ns() - start
            )
        return record

    # ------------------------------------------------------------------
    # Whole-class batch decisions (the vector decide plane)
    # ------------------------------------------------------------------
    #: Selection discipline on the vector decide plane.
    vector_kind = "rank2"

    @property
    def vector_ledger(self):
        """The live ledger the vector decide plane reads and commits to."""
        return self._edge_weights

    def decide_class(self, cells) -> Optional[List[list]]:
        """Batched pure decide for a whole color class.

        Returns one choice list per cell (choices in op order), computed
        on the vector plane (:mod:`repro.core.vector`) and bit-identical
        to looping :meth:`decide`/:meth:`commit` over the class in plan
        order.  ``None`` means the class is not vectorizable (scalar
        decide mode, events without compiled kernels) and the caller
        should keep its per-op loop.  Never mutates the fixer's
        bookkeeping state; the speculative run state it parks is
        confirmed or discarded by :meth:`commit_class`.
        """
        from repro.core import vector

        return vector.decide_class_choices(self, cells, self._instance)

    def commit_class(self, cells, class_choices) -> None:
        """Commit a class's worth of decided choices, in plan order.

        With a recorder attached, invariant validation on, or no pending
        run state for this class, defers to the full-fidelity
        :meth:`commit` per op; otherwise applies the same mutations
        through a lean loop over the template's resolved op records and
        the live ledger entries the decide resolved.
        """
        from repro.core import vector

        state = vector.cached_commit(self, cells)
        if self._validate or _obs_active() is not None or state is None:
            self._vector_state = None
            for cell, choices in zip(cells, class_choices):
                for op, choice in zip(cell.ops, choices):
                    variable = self._instance.variable(op.variable)
                    events = self._instance.events_of_variable(op.variable)
                    self.commit(
                        Decision(
                            variable=variable,
                            events=tuple(events),
                            choice=choice,
                        )
                    )
            return
        assignment = self._assignment
        steps = self._steps
        records = state.pending[1]
        refs = state.pending[2]
        for (_owner, ops), cell_refs, choices in zip(
            records, refs, class_choices
        ):
            for op, ref, choice in zip(ops, cell_refs, choices):
                variable = op[vector.TOP_VARIABLE]
                names = op[vector.TOP_NAMES]
                if isinstance(choice, Rank1Choice):
                    record = make_step_record(
                        variable=variable.name,
                        value=choice.value,
                        events=(names[0],),
                        increases=(choice.increase,),
                        slack=choice.slack,
                        num_good_values=choice.num_good_values,
                        num_values=variable.num_values,
                    )
                else:
                    ref[names[0]] = choice.new_weights[0]
                    ref[names[1]] = choice.new_weights[1]
                    record = make_step_record(
                        variable=variable.name,
                        value=choice.value,
                        events=names,
                        increases=choice.increases,
                        slack=choice.slack,
                        num_good_values=choice.num_good_values,
                        num_values=variable.num_values,
                    )
                assignment.fix(variable, choice.value)
                steps.append(record)
        state.pending = None

    def run(self, order: Optional[Iterable[Hashable]] = None) -> FixingResult:
        """Fix every variable (in ``order`` if given) and return the result.

        The order may be any permutation of the variable names; Theorem 1.1
        guarantees success for all of them.
        """
        if order is None:
            order = [variable.name for variable in self._instance.variables]
        for name in order:
            self.fix_variable(name)
        remaining = [
            variable.name
            for variable in self._instance.variables
            if not self._assignment.is_fixed(variable.name)
        ]
        for name in remaining:
            self.fix_variable(name)
        result = FixingResult(
            assignment=self._assignment,
            steps=tuple(self._steps),
            certified_bounds=self.certified_bounds(),
        )
        recorder = _obs_active()
        if recorder is not None:
            recorder.event(
                "fixer.rank2",
                "run_complete",
                steps=result.num_steps,
                max_certified_bound=result.max_certified_bound,
                min_slack=result.min_slack,
            )
        return result

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def certified_bounds(self) -> Dict[Hashable, float]:
        """Per-event bound ``p_v * product of absorbed edge weights``."""
        bounds = {
            name: probability
            for name, probability in self._initial_probabilities.items()
        }
        for edge, weights in self._edge_weights.items():
            for node, weight in weights.items():
                bounds[node] *= weight
        return bounds

    def check_invariant(self) -> None:
        """Assert the Theorem-1.1 bookkeeping invariant.

        For every event: its conditional probability given the current
        partial assignment is at most its certified bound, and every edge's
        weight pair sums to at most 2.

        Raises
        ------
        PStarViolationError
            If either condition fails beyond numerical tolerance.
        """
        for edge, weights in self._edge_weights.items():
            total = sum(weights.values())
            if total > 2.0 + 1e-7:
                raise PStarViolationError(
                    f"edge {set(edge)!r}: weights sum to {total} > 2"
                )
        bounds = self.certified_bounds()
        for event in self._instance.events:
            conditional = event.probability(self._assignment)
            if conditional > bounds[event.name] + 1e-7:
                raise PStarViolationError(
                    f"event {event.name!r}: conditional probability "
                    f"{conditional} exceeds certified bound {bounds[event.name]}"
                )


def solve_rank2(
    instance: LLLInstance,
    order: Optional[Iterable[Hashable]] = None,
    require_criterion: bool = True,
) -> FixingResult:
    """Convenience wrapper: build a :class:`Rank2Fixer` and run it."""
    fixer = Rank2Fixer(instance, require_criterion=require_criterion)
    return fixer.run(order)
