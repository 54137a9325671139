"""The rank-3 deterministic fixer (Theorem 1.3 / Corollary 1.4).

Variables may affect up to three bad events.  The fixer maintains
property P* (:class:`repro.core.pstar.PStarState`).  To fix a rank-3
variable on the event triangle ``{u, v, w}``:

1. read the current representable triple
   ``(a, b, c) = (phi_e^u phi_e'^u, phi_e^v phi_e''^v, phi_e'^w phi_e''^w)``,
2. for each candidate value ``y`` compute the exact increase triple
   ``(Inc(u,y), Inc(v,y), Inc(w,y))``,
3. keep the values whose scaled triple stays in ``S_rep`` — these are
   exactly the non-(a,b,c)-evil values of Definition 3.8, whose existence
   Lemma 3.2 guarantees via the incurvedness of ``S_rep`` —
4. fix the variable to the value with the largest representability
   margin and write the decomposition of the new triple back onto the
   three edges.

Rank-2 variables are handled by the weighted pair rule (the "weighted
version" discussed in Section 3.1): with current edge values ``(s, t)``
there is a value with ``s*Inc_u + t*Inc_v <= 2``, and the edge is updated
to ``(s*Inc_u, t*Inc_v)``.  Rank-1 variables take any value with
``Inc <= 1``.  This realises the paper's virtual-third-event reduction
without inflating the dependency graph.

The ``Inc`` ratios come from the batch
:meth:`~repro.probability.BadEvent.conditional_increases` API via
:mod:`repro.core.selection` — one query per affected event per step, a
single truth-table pass each under the compiled engine (see
``docs/engine.md``).
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PStarViolationError
from repro.obs.recorder import MARGIN_BUCKETS, active as _obs_active
from repro.lll.instance import LLLInstance
from repro.lll.verify import check_preconditions
from repro.core.pstar import PStarState, checked_edge_write
from repro.core.results import FixingResult, StepRecord, make_step_record
from repro.core.selection import (
    MEMBERSHIP_TOLERANCE,
    Decision,
    Rank1Choice,
    Rank2Choice,
    select_rank1,
    select_rank2,
    select_rank3,
)
from repro.probability import DiscreteVariable, PartialAssignment


class Rank3Fixer:
    """Sequential deterministic fixer for instances of rank at most 3.

    Parameters
    ----------
    instance:
        The LLL instance.  Every variable must affect at most three events.
    require_criterion:
        If True (default), reject instances violating ``p < 2^-d``.
        Disable to probe behaviour at the threshold, where
        :class:`NoGoodValueError` may legitimately occur.
    validate_invariant:
        If True, assert property P* after every fixing step (slow; used
        by tests).
    """

    def __init__(
        self,
        instance: LLLInstance,
        require_criterion: bool = True,
        validate_invariant: bool = False,
    ) -> None:
        self._instance = instance
        check_preconditions(
            instance, max_rank=3, require_criterion=require_criterion
        )
        self._validate = validate_invariant
        self._assignment = PartialAssignment()
        self._pstar = PStarState(instance)
        self._steps: List[StepRecord] = []

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def assignment(self) -> PartialAssignment:
        """The (partial) assignment built so far."""
        return self._assignment

    @property
    def pstar(self) -> PStarState:
        """The live property-P* bookkeeping state."""
        return self._pstar

    @property
    def steps(self) -> Tuple[StepRecord, ...]:
        """Trace of fixing steps performed so far."""
        return tuple(self._steps)

    def is_fixed(self, variable_name: Hashable) -> bool:
        """Whether the named variable has already been fixed."""
        return self._assignment.is_fixed(variable_name)

    # ------------------------------------------------------------------
    # Fixing
    # ------------------------------------------------------------------
    def local_weights(self, events: Sequence) -> Tuple[float, ...]:
        """The phi-ledger values a decision on ``events`` reads.

        ``()`` for rank 1, the edge pair ``(phi_e^u, phi_e^v)`` for rank
        2, the representable triple ``(a, b, c)`` for rank 3.  A decision
        depends on nothing else, which is what makes batched decision
        memoization sound.
        """
        if len(events) == 1:
            return ()
        if len(events) == 2:
            u, v = events[0].name, events[1].name
            return (self._pstar.value(u, v, u), self._pstar.value(u, v, v))
        u, v, w = (event.name for event in events)
        return (
            self._pstar.value(u, v, u) * self._pstar.value(u, w, u),
            self._pstar.value(u, v, v) * self._pstar.value(v, w, v),
            self._pstar.value(u, w, w) * self._pstar.value(v, w, w),
        )

    def decide(self, variable_name: Hashable) -> Decision:
        """Compute (without committing) the fixing decision for a variable.

        Pure with respect to the phi ledger: repeated calls return the
        same decision until a :meth:`commit` changes the state.  Raises
        :class:`NoGoodValueError` when every value is evil — which
        Lemma 3.2 proves impossible while P* holds.
        """
        if self._assignment.is_fixed(variable_name):
            raise PStarViolationError(
                f"variable {variable_name!r} is already fixed"
            )
        variable = self._instance.variable(variable_name)
        events = self._instance.events_of_variable(variable_name)
        weights = self.local_weights(events)
        if len(events) == 1:
            choice = select_rank1(variable, events[0], self._assignment)
        elif len(events) == 2:
            choice = select_rank2(
                variable, events, weights, self._assignment
            )
        else:
            choice = select_rank3(
                variable, events, weights, self._assignment
            )
        return Decision(
            variable=variable, events=tuple(events), choice=choice
        )

    def commit(self, decision: Decision) -> StepRecord:
        """Apply a decision: update the phi ledger, assignment and trace."""
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
        elif isinstance(choice, Rank2Choice):
            u, v = events[0].name, events[1].name
            self._pstar.set_edge(u, v, *choice.new_weights)
            record = StepRecord(
                variable=variable.name,
                value=choice.value,
                events=(u, v),
                increases=choice.increases,
                slack=choice.slack,
                num_good_values=choice.num_good_values,
                num_values=variable.num_values,
            )
        else:
            u, v, w = (event.name for event in events)
            decomposition = choice.decomposition
            self._pstar.set_edge(u, v, decomposition.a1, decomposition.b1)
            self._pstar.set_edge(u, w, decomposition.a2, decomposition.c2)
            self._pstar.set_edge(v, w, decomposition.b3, decomposition.c3)
            record = StepRecord(
                variable=variable.name,
                value=choice.value,
                events=(u, v, w),
                increases=choice.increases,
                slack=max(choice.margin, 0.0),
                num_good_values=choice.num_good_values,
                num_values=variable.num_values,
            )
        self._assignment.fix(variable, choice.value)
        self._steps.append(record)
        if recorder is not None:
            rank = len(record.events)
            recorder.record_span(
                "fixer.rank3", "commit", time.perf_counter_ns() - start
            )
            recorder.count("fixer.rank3", f"rank{rank}_fixes")
            if rank == 3:
                recorder.observe(
                    "fixer.rank3",
                    "representability_margin",
                    record.slack,
                    bounds=MARGIN_BUCKETS,
                )
            recorder.event(
                "fixer.rank3",
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
            self._pstar.check(self._assignment)
        return record

    def fix_variable(self, variable_name: Hashable) -> StepRecord:
        """Fix one variable while preserving property P*.

        Equivalent to ``commit(decide(variable_name))``; kept as the
        single-call entry point the serial paths use.
        """
        recorder = _obs_active()
        start = time.perf_counter_ns() if recorder is not None else 0
        record = self.commit(self.decide(variable_name))
        if recorder is not None:
            recorder.record_span(
                "fixer.rank3", "fix", time.perf_counter_ns() - start
            )
        return record

    # ------------------------------------------------------------------
    # Whole-class batch decisions (the vector decide plane)
    # ------------------------------------------------------------------
    #: Selection discipline on the vector decide plane.
    vector_kind = "rank3"

    @property
    def vector_ledger(self):
        """The live ledger the vector decide plane reads and commits to."""
        return self._pstar.entries

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
        through a lean loop over the template's resolved op records.
        Phi values that are certainly in range (non-negative pairs
        summing to at most 2 — the common case) are written directly;
        anything else goes through
        :func:`repro.core.pstar.checked_edge_write`, so validation,
        clamping and error messages match :meth:`PStarState.set_edge`
        exactly, and the run state's flat ledger is re-synced with the
        clamped values.
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
        phi = state.phi
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
                elif isinstance(choice, Rank2Choice):
                    u, v = names
                    value_u, value_v = choice.new_weights
                    if (
                        value_u >= 0.0
                        and value_v >= 0.0
                        and value_u + value_v <= 2.0
                    ):
                        ref[u] = value_u
                        ref[v] = value_v
                    else:
                        checked_edge_write(ref, u, v, value_u, value_v)
                        slots = op[vector.TOP_APPLY]
                        phi[slots[0]] = ref[u]
                        phi[slots[1]] = ref[v]
                    record = make_step_record(
                        variable=variable.name,
                        value=choice.value,
                        events=names,
                        increases=choice.increases,
                        slack=choice.slack,
                        num_good_values=choice.num_good_values,
                        num_values=variable.num_values,
                    )
                else:
                    u, v, w = names
                    entry_uv, entry_uw, entry_vw = ref
                    decomposition = choice.decomposition
                    a1 = decomposition.a1
                    b1 = decomposition.b1
                    a2 = decomposition.a2
                    c2 = decomposition.c2
                    b3 = decomposition.b3
                    c3 = decomposition.c3
                    if (
                        a1 >= 0.0
                        and b1 >= 0.0
                        and a1 + b1 <= 2.0
                        and a2 >= 0.0
                        and c2 >= 0.0
                        and a2 + c2 <= 2.0
                        and b3 >= 0.0
                        and c3 >= 0.0
                        and b3 + c3 <= 2.0
                    ):
                        entry_uv[u] = a1
                        entry_uv[v] = b1
                        entry_uw[u] = a2
                        entry_uw[w] = c2
                        entry_vw[v] = b3
                        entry_vw[w] = c3
                    else:
                        checked_edge_write(entry_uv, u, v, a1, b1)
                        checked_edge_write(entry_uw, u, w, a2, c2)
                        checked_edge_write(entry_vw, v, w, b3, c3)
                        slots = op[vector.TOP_APPLY]
                        phi[slots[0]] = entry_uv[u]
                        phi[slots[1]] = entry_uv[v]
                        phi[slots[2]] = entry_uw[u]
                        phi[slots[3]] = entry_uw[w]
                        phi[slots[4]] = entry_vw[v]
                        phi[slots[5]] = entry_vw[w]
                    record = make_step_record(
                        variable=variable.name,
                        value=choice.value,
                        events=names,
                        increases=choice.increases,
                        slack=max(choice.margin, 0.0),
                        num_good_values=choice.num_good_values,
                        num_values=variable.num_values,
                    )
                assignment.fix(variable, choice.value)
                steps.append(record)
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
        result = FixingResult(
            assignment=self._assignment,
            steps=tuple(self._steps),
            certified_bounds=self._pstar.certified_bounds(),
        )
        recorder = _obs_active()
        if recorder is not None:
            recorder.event(
                "fixer.rank3",
                "run_complete",
                steps=result.num_steps,
                max_certified_bound=result.max_certified_bound,
                min_slack=result.min_slack,
            )
        return result


def solve_rank3(
    instance: LLLInstance,
    order: Optional[Iterable[Hashable]] = None,
    require_criterion: bool = True,
) -> FixingResult:
    """Convenience wrapper: build a :class:`Rank3Fixer` and run it."""
    fixer = Rank3Fixer(instance, require_criterion=require_criterion)
    return fixer.run(order)
