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

from typing import Hashable, Iterable, Optional

from repro.errors import CriterionViolationError
from repro.lll.instance import LLLInstance
from repro.core.fixer import WeightLedgerFixer
from repro.core.results import FixingResult
from repro.core.selection import select_rankr


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


class NaiveRankRFixer(WeightLedgerFixer):
    """Deterministic fixer for arbitrary rank under the naive criterion.

    One weight vector per hyperedge (= per distinct affected-event set):
    variables with the same event set share it, exactly like several
    rank-2 variables sharing a dependency edge
    (:class:`~repro.core.fixer.WeightLedgerFixer`).

    Parameters
    ----------
    instance:
        Any LLL instance (no rank restriction).
    require_criterion:
        If True (default), reject instances violating the per-event naive
        criterion ``p_v < r^-H_v`` up front.
    """

    vector_kind = "naive"
    obs_component = "fixer.naive"
    key_noun = "hyperedge"

    def __init__(
        self, instance: LLLInstance, require_criterion: bool = True
    ) -> None:
        if require_criterion:
            check_naive_criterion(instance)
        super().__init__(instance)

    def _select(self, variable, events, weights):
        """The weighted-budget rule, whatever the rank."""
        return select_rankr(variable, events, weights, self._assignment)


def solve_naive(
    instance: LLLInstance,
    order: Optional[Iterable[Hashable]] = None,
    require_criterion: bool = True,
) -> FixingResult:
    """Convenience wrapper: build a :class:`NaiveRankRFixer` and run it."""
    fixer = NaiveRankRFixer(instance, require_criterion=require_criterion)
    return fixer.run(order)
