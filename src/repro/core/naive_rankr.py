"""The naive rank-r fixer the paper's introduction sketches (and rejects).

Section 1 of the paper observes that the rank-2 argument generalises
"in a straightforward way" to variables affecting up to ``r`` events —
at the cost of a far stronger criterion: each fixing may multiply the
affected probabilities by up to ``r`` (instead of 2), and an event may
depend on up to ``C(d, r-1)`` variables, so the straightforward
generalisation needs ``p < r^-C(d, r-1)``.  The whole point of the
paper's main theorem is that for ``r = 3`` this cost is *not* necessary:
``p < 2^-d`` suffices.

This module implements that straightforward generalisation anyway, for
three reasons:

* it is the only deterministic fixer in this library that works for
  **arbitrary rank** — the regime of the paper's Conjecture 1.5;
* it makes the gap measurable: the ablation benchmarks can show
  instances that the naive fixer must reject but the P*-based rank-3
  fixer solves;
* its bookkeeping is the natural ``r``-ary analogue of Theorem 1.1 and
  doubles as a reference implementation for the weighted-averaging step.

The bookkeeping: for each variable hyperedge ``h`` (the set of events a
variable affects) we maintain one weight ``w_h^v >= 0`` per affected
event ``v`` with ``sum_v w_h^v <= |h|``; all weights start at 1.  When
fixing a variable on ``h``, linearity of expectation yields a value
whose weighted increase sum is at most ``sum_v w_h^v <= r``, and the
weights absorb the realised increases.  At the end, event ``v``'s
probability is bounded by ``p_v * prod_h w_h^v <= p_v * r^{H_v}`` where
``H_v`` is the number of distinct variable hyperedges at ``v`` — so the
per-event criterion ``p_v < r^-H_v`` (implied by the paper's global
``p < r^-C(d, r-1)``) guarantees success.
"""

from __future__ import annotations

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

from repro.errors import CriterionViolationError, NoGoodValueError, PStarViolationError
from repro.lll.instance import LLLInstance
from repro.core.results import FixingResult, StepRecord, make_step_record
from repro.core.selection import Decision, select_rankr
from repro.probability import DiscreteVariable, PartialAssignment

#: Slack below which a chosen value counts as violating the budget.
CONSTRAINT_TOLERANCE = 1e-9


def naive_threshold(rank: int, hyperedges_at_event: int) -> float:
    """The per-event probability bound the naive argument needs.

    ``p_v < rank^-H_v`` where ``H_v`` counts the distinct variable
    hyperedges at the event.  The paper states the global worst case
    ``H_v <= C(d, r-1)``.
    """
    return float(max(rank, 2)) ** (-hyperedges_at_event)


def check_naive_criterion(instance: LLLInstance) -> None:
    """Raise unless every event satisfies its naive per-event bound.

    Raises
    ------
    CriterionViolationError
        Naming the first event whose probability reaches
        ``r^-{#hyperedges at the event}``.
    """
    rank = max(instance.rank, 2)
    hypergraph = instance.variable_hypergraph
    for event in instance.events:
        # Hyperedges (event sets) of the variables at this event; several
        # variables sharing the same event set share one weight vector.
        hyperedges = {
            frozenset(edge.nodes)
            for edge in hypergraph.incident_edges(event.name)
        }
        bound = naive_threshold(rank, len(hyperedges))
        probability = event.probability()
        if probability >= bound:
            raise CriterionViolationError(
                f"event {event.name!r} violates the naive rank-{rank} "
                f"criterion: p={probability:.6g} >= {rank}^-{len(hyperedges)}"
                f" = {bound:.6g}"
            )


class NaiveRankRFixer:
    """Deterministic fixer for arbitrary rank under the naive criterion.

    Parameters
    ----------
    instance:
        Any LLL instance (no rank restriction).
    require_criterion:
        If True (default), reject instances violating the per-event naive
        criterion ``p_v < r^-H_v`` up front.
    """

    def __init__(
        self, instance: LLLInstance, require_criterion: bool = True
    ) -> None:
        self._instance = instance
        self._rank = max(instance.rank, 1)
        if require_criterion:
            check_naive_criterion(instance)
        self._assignment = PartialAssignment()
        # One weight vector per hyperedge (= per distinct affected-event
        # set); variables with the same event set share it, exactly like
        # multiple rank-2 variables sharing a dependency edge.
        self._weights: Dict[FrozenSet, Dict[Hashable, float]] = {}
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
        """The hyperedge weight vector a decision on ``events`` reads."""
        key = frozenset(event.name for event in events)
        weights = self._weights.setdefault(
            key, {event.name: 1.0 for event in events}
        )
        return tuple(weights[event.name] for event in events)

    def decide(self, variable_name: Hashable) -> Decision:
        """Compute (without committing) the weighted-average decision."""
        if self._assignment.is_fixed(variable_name):
            raise PStarViolationError(
                f"variable {variable_name!r} is already fixed"
            )
        variable = self._instance.variable(variable_name)
        events = self._instance.events_of_variable(variable_name)
        choice = select_rankr(
            variable, events, self.local_weights(events), self._assignment
        )
        return Decision(
            variable=variable, events=tuple(events), choice=choice
        )

    def commit(self, decision: Decision) -> StepRecord:
        """Apply a decision: update the weights, assignment and trace."""
        variable = decision.variable
        events = decision.events
        choice = decision.choice
        weights = self._weights[
            frozenset(event.name for event in events)
        ]
        for event, new_weight in zip(events, choice.new_weights):
            weights[event.name] = new_weight
        self._assignment.fix(variable, choice.value)
        record = StepRecord(
            variable=variable.name,
            value=choice.value,
            events=tuple(event.name for event in events),
            increases=choice.increases,
            slack=choice.slack,
            num_good_values=choice.num_good_values,
            num_values=variable.num_values,
        )
        self._steps.append(record)
        return record

    def fix_variable(self, variable_name: Hashable) -> StepRecord:
        """Fix one variable by weighted-average value selection."""
        return self.commit(self.decide(variable_name))

    # ------------------------------------------------------------------
    # Whole-class batch decisions (the vector decide plane)
    # ------------------------------------------------------------------
    #: Selection discipline on the vector decide plane.
    vector_kind = "naive"

    @property
    def vector_ledger(self):
        """The live ledger the vector decide plane reads and commits to."""
        return self._weights

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

        With no pending run state for this class, defers to the
        full-fidelity :meth:`commit` per op; otherwise applies the same
        mutations through a lean loop over the template's resolved op
        records and the live weight vectors the decide resolved.
        """
        from repro.core import vector

        state = vector.cached_commit(self, cells)
        if state is None:
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
                for name, weight in zip(names, choice.new_weights):
                    ref[name] = weight
                assignment.fix(variable, choice.value)
                steps.append(
                    make_step_record(
                        variable=variable.name,
                        value=choice.value,
                        events=names,
                        increases=choice.increases,
                        slack=choice.slack,
                        num_good_values=choice.num_good_values,
                        num_values=variable.num_values,
                    )
                )
        state.pending = None

    def run(self, order: Optional[Iterable[Hashable]] = None) -> FixingResult:
        """Fix every variable (in ``order`` if given) and return the result."""
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
        return FixingResult(
            assignment=self._assignment,
            steps=tuple(self._steps),
            certified_bounds=self.certified_bounds(),
        )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def certified_bounds(self) -> Dict[Hashable, float]:
        """Per-event bound ``p_v * product of absorbed hyperedge weights``."""
        bounds = dict(self._initial_probabilities)
        for weights in self._weights.values():
            for node, weight in weights.items():
                bounds[node] *= weight
        return bounds

    def check_invariant(self) -> None:
        """Assert the weighted-budget bookkeeping invariant.

        Every hyperedge's weights sum to at most its cardinality (the
        budget the averaging argument preserves), and every event's
        conditional probability is at most its certified bound.
        """
        for key, weights in self._weights.items():
            if sum(weights.values()) > len(key) + 1e-7:
                raise PStarViolationError(
                    f"hyperedge {set(key)!r}: weights sum to "
                    f"{sum(weights.values())} > {len(key)}"
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


def solve_naive(
    instance: LLLInstance,
    order: Optional[Iterable[Hashable]] = None,
    require_criterion: bool = True,
) -> FixingResult:
    """Convenience wrapper: build a :class:`NaiveRankRFixer` and run it."""
    fixer = NaiveRankRFixer(instance, require_criterion=require_criterion)
    return fixer.run(order)
