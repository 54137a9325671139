"""Distributed LLL algorithms (Corollary 1.2 and Corollary 1.4).

Both algorithms have the same two-phase shape:

1. **Symmetry breaking.**  Corollary 1.2 edge-colors the dependency graph
   with ``2d - 1`` colors; Corollary 1.4 computes a 2-hop vertex coloring
   with ``d^2 + 1`` colors.  Both run as honest LOCAL simulations
   (:mod:`repro.coloring`) whose round counts are ``O(poly d + log* n)``.

2. **Scheduled fixing.**  The color classes are processed one per
   communication round.  In an edge class, the variables of each edge of
   that color are fixed by its endpoints; in a 2-hop class, every node of
   that color fixes all its still-unfixed variables.  Because same-color
   edges share no endpoint (resp. same-color nodes are at distance at
   least 3), no two simultaneous fixings touch a common event, so the
   parallel execution is equivalent to *some* sequential order — and
   Theorems 1.1/1.3 hold for every order.

Both phases are one data structure, the fix plan of
:func:`repro.runtime.plan.plan_for_instance` (edge classes at rank 2,
2-hop classes at rank 3), whose every class checks the disjointness
when it is built.  This module executes the plan through a scheduler
backend and accounts one round per class;
:func:`repro.core.local_protocol.solve_distributed_local` runs the same
plan as message passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.rank2 import Rank2Fixer
from repro.core.rank3 import Rank3Fixer
from repro.core.results import FixingResult
from repro.lll.instance import LLLInstance


@dataclass
class DistributedResult:
    """Outcome and round accounting of a distributed LLL run."""

    #: Result of the underlying fixing process (assignment + trace).
    fixing: FixingResult
    #: LOCAL rounds spent computing the coloring (host-graph rounds).
    coloring_rounds: int
    #: LOCAL rounds spent iterating the color classes.
    schedule_rounds: int
    #: Size of the coloring palette (= number of schedule rounds budgeted).
    palette: int
    #: Messages delivered per simulator round (message-level protocol
    #: runs only; empty for scheduler-level simulations, which exchange
    #: no real messages).
    round_messages: Tuple[int, ...] = ()
    #: Payload ``repr`` length delivered per simulator round (same
    #: provenance as :attr:`round_messages`).
    round_payload_chars: Tuple[int, ...] = ()

    @property
    def total_rounds(self) -> int:
        """Total LOCAL rounds of the algorithm."""
        return self.coloring_rounds + self.schedule_rounds

    @property
    def assignment(self):
        """The computed variable assignment."""
        return self.fixing.assignment


def _solve_planned(
    fixer_class, instance, require_criterion, validate_invariant, scheduler
) -> DistributedResult:
    """Run ``instance``'s fix plan through a scheduler with a fresh fixer."""
    from repro.runtime.plan import plan_for_instance
    from repro.runtime.schedulers import SerialScheduler

    fixer = fixer_class(
        instance,
        require_criterion=require_criterion,
        validate_invariant=validate_invariant,
    )
    plan = plan_for_instance(instance)
    if scheduler is None:
        scheduler = SerialScheduler()
    scheduler.execute(fixer, plan, instance)
    return DistributedResult(
        fixing=fixer.run(order=()),
        coloring_rounds=plan.coloring_rounds,
        schedule_rounds=plan.num_classes,
        palette=plan.palette,
    )


def solve_distributed_rank2(
    instance: LLLInstance,
    require_criterion: bool = True,
    validate_invariant: bool = False,
    scheduler=None,
) -> DistributedResult:
    """Corollary 1.2: the ``O(d + log* n)``-schedule distributed algorithm.

    Edge-colors the dependency graph, builds the color-class
    :class:`~repro.runtime.plan.FixPlan` (rank-1 variables go in one
    initial class, since variables of distinct events cannot conflict)
    and executes it through ``scheduler`` (default:
    :class:`~repro.runtime.schedulers.SerialScheduler`).
    """
    return _solve_planned(
        Rank2Fixer, instance, require_criterion, validate_invariant, scheduler
    )


def solve_distributed_rank3(
    instance: LLLInstance,
    require_criterion: bool = True,
    validate_invariant: bool = False,
    scheduler=None,
) -> DistributedResult:
    """Corollary 1.4: the ``O(d^2 + log* n)``-schedule distributed algorithm.

    Computes a 2-hop coloring of the dependency graph with ``d^2 + 1``
    colors, builds the color-class plan (each active node's cell fixes
    all its still-unclaimed variables) and executes it through
    ``scheduler`` (default serial).  A rank-2 instance runs on its
    Corollary 1.2 edge schedule, like every other executor.
    """
    return _solve_planned(
        Rank3Fixer, instance, require_criterion, validate_invariant, scheduler
    )


def solve_distributed(
    instance: LLLInstance,
    require_criterion: bool = True,
    validate_invariant: bool = False,
    scheduler=None,
) -> DistributedResult:
    """Dispatch to the rank-2 or rank-3 distributed algorithm by rank."""
    return _solve_planned(
        Rank2Fixer if instance.rank <= 2 else Rank3Fixer,
        instance,
        require_criterion,
        validate_invariant,
        scheduler,
    )
