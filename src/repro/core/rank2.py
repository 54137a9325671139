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

from typing import Hashable, Iterable, Optional

from repro.lll.instance import LLLInstance
from repro.lll.verify import check_preconditions
from repro.core.fixer import WeightLedgerFixer
from repro.core.results import FixingResult


class Rank2Fixer(WeightLedgerFixer):
    """Sequential deterministic fixer for instances of rank at most 2.

    The ledger holds, per dependency edge ``{u, v}`` and endpoint ``u``,
    the product of the ``Inc`` ratios event ``u`` has absorbed from
    variables on that edge (:class:`~repro.core.fixer.WeightLedgerFixer`).

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
        If True, re-verify the bookkeeping invariant (every edge's
        weight pair sums to at most 2, and each event's conditional
        probability is below its certified bound) after every step.
        Costs extra probability computations; used by tests.
    """

    vector_kind = "rank2"
    obs_component = "fixer.rank2"
    key_noun = "edge"

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


def solve_rank2(
    instance: LLLInstance,
    order: Optional[Iterable[Hashable]] = None,
    require_criterion: bool = True,
) -> FixingResult:
    """Convenience wrapper: build a :class:`Rank2Fixer` and run it."""
    fixer = Rank2Fixer(instance, require_criterion=require_criterion)
    return fixer.run(order)
