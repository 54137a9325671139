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

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
)

from repro.lll.instance import LLLInstance
from repro.lll.verify import check_preconditions
from repro.core.fixer import Fixer, check_ledger, ledger_bounds
from repro.core.results import FixingResult


class Rank2Fixer(Fixer):
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

    vector_kind = "rank2"
    obs_component = "fixer.rank2"

    def __init__(
        self,
        instance: LLLInstance,
        require_criterion: bool = True,
        validate_invariant: bool = False,
    ) -> None:
        check_preconditions(
            instance, max_rank=2, require_criterion=require_criterion
        )
        super().__init__(instance, validate_invariant)
        # Cumulative increase weights per dependency edge and endpoint.
        # _edge_weights[frozenset({u, v})][u] is the product of the Inc
        # ratios event u has absorbed from variables on edge {u, v}.
        self._edge_weights: Dict[FrozenSet[Hashable], Dict[Hashable, float]] = {}
        # Via the instance (and hence the artifact store's parameters
        # tier): same-shape instances share one probability enumeration.
        self._initial_probabilities = instance.event_probabilities()

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    @property
    def vector_ledger(self):
        return self._edge_weights

    def _ledger_ref(self, names, keys=None):
        if len(names) < 2:
            return None
        key = frozenset(names) if keys is None else keys[0]
        weights = self._edge_weights.get(key)
        if weights is None:
            weights = self._edge_weights[key] = {names[0]: 1.0, names[1]: 1.0}
        return weights

    def _write(self, ref, names, choice):
        ref[names[0]] = choice.new_weights[0]
        ref[names[1]] = choice.new_weights[1]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def certified_bounds(self) -> Dict[Hashable, float]:
        """Per-event bound ``p_v * product of absorbed edge weights``."""
        return ledger_bounds(self._initial_probabilities, self._edge_weights)

    def check_invariant(self) -> None:
        """Assert the Theorem-1.1 bookkeeping invariant: every edge's
        weight pair sums to at most 2, and every event's conditional
        probability is at most its certified bound."""
        check_ledger(self, self._edge_weights, "edge")


def solve_rank2(
    instance: LLLInstance,
    order: Optional[Iterable[Hashable]] = None,
    require_criterion: bool = True,
) -> FixingResult:
    """Convenience wrapper: build a :class:`Rank2Fixer` and run it."""
    fixer = Rank2Fixer(instance, require_criterion=require_criterion)
    return fixer.run(order)
