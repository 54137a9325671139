"""Sequential drivers and fixing-order strategies.

Theorems 1.1 and 1.3 hold for *any* order in which the variables are
fixed, including orders chosen by an adaptive adversary that inspects the
fixer's bookkeeping.  This module provides static orders, adaptive
adversaries, and a top-level :func:`solve` that dispatches to the right
fixer by instance rank.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, Iterable, List, Optional, Sequence

from repro.errors import RankViolationError
from repro.lll.instance import LLLInstance
from repro.obs.recorder import active as _obs_active, span as _obs_span
from repro.core.fixer import Fixer
from repro.core.rank2 import Rank2Fixer
from repro.core.rank3 import Rank3Fixer
from repro.core.results import FixingResult

#: An adaptive adversary: given the live fixer and the unfixed variable
#: names, return the name to fix next.
Chooser = Callable[[Fixer, Sequence[Hashable]], Hashable]


# ----------------------------------------------------------------------
# Static orders
# ----------------------------------------------------------------------
def construction_order(instance: LLLInstance) -> List[Hashable]:
    """Variable names in instance-construction order."""
    return [variable.name for variable in instance.variables]


def reversed_order(instance: LLLInstance) -> List[Hashable]:
    """Construction order, reversed."""
    return list(reversed(construction_order(instance)))


def random_order(instance: LLLInstance, rng: random.Random) -> List[Hashable]:
    """A uniformly random permutation of the variable names."""
    order = construction_order(instance)
    rng.shuffle(order)
    return order


def interleaved_order(instance: LLLInstance, stride: int = 2) -> List[Hashable]:
    """Construction order visited with a stride (a simple 'scattered' order)."""
    order = construction_order(instance)
    result = []
    for offset in range(stride):
        result.extend(order[offset::stride])
    return result


# ----------------------------------------------------------------------
# Adaptive adversaries
# ----------------------------------------------------------------------
def _pressure_key(fixer: Fixer):
    """Sort key: summed certified bounds of a variable's events, then name."""
    bounds = fixer.certified_bounds()
    events_of = fixer.instance.events_of_variable

    def key(name: Hashable):
        pressure = sum(bounds[event.name] for event in events_of(name))
        return (pressure, repr(name))

    return key


def max_pressure_chooser(fixer: Fixer, unfixed: Sequence[Hashable]) -> Hashable:
    """Pick the variable whose events carry the largest certified bounds.

    This adversary always pokes the most-stressed part of the bookkeeping,
    trying to drive some event's certified bound toward 1.
    """
    return max(unfixed, key=_pressure_key(fixer))


def min_pressure_chooser(fixer: Fixer, unfixed: Sequence[Hashable]) -> Hashable:
    """Pick the variable whose events carry the smallest certified bounds."""
    return min(unfixed, key=_pressure_key(fixer))


def lexicographic_chooser(fixer: Fixer, unfixed: Sequence[Hashable]) -> Hashable:
    """Pick the lexicographically smallest unfixed variable name."""
    return min(unfixed, key=repr)


def make_random_chooser(rng: random.Random) -> Chooser:
    """An adversary that picks uniformly at random (for control runs)."""

    def chooser(fixer: Fixer, unfixed: Sequence[Hashable]) -> Hashable:
        return unfixed[rng.randrange(len(unfixed))]

    return chooser


def run_with_adversary(fixer: Fixer, chooser: Chooser) -> FixingResult:
    """Drive ``fixer`` to completion with an adaptive adversary.

    The adversary sees the live fixer (including its bookkeeping state)
    before every step — the strongest setting the theorems cover.
    """
    instance = fixer.instance
    unfixed = [
        variable.name
        for variable in instance.variables
        if not fixer.is_fixed(variable.name)
    ]
    while unfixed:
        name = chooser(fixer, unfixed)
        fixer.fix_variable(name)
        unfixed.remove(name)
    # run() with no order fixes nothing further and assembles the result.
    return fixer.run(order=())


# ----------------------------------------------------------------------
# Top-level dispatch
# ----------------------------------------------------------------------
def solve(
    instance: LLLInstance,
    order: Optional[Iterable[Hashable]] = None,
    chooser: Optional[Chooser] = None,
    require_criterion: bool = True,
    validate_invariant: bool = False,
    scheduler=None,
) -> FixingResult:
    """Solve an LLL instance with the appropriate deterministic fixer.

    Rank-1/2 instances use :class:`Rank2Fixer` (Theorem 1.1); rank-3
    instances use :class:`Rank3Fixer` (Theorem 1.3).  Exactly one of
    ``order`` (a static permutation) and ``chooser`` (an adaptive
    adversary) may be given; with neither, construction order is used.

    ``scheduler`` (a :class:`repro.runtime.Scheduler`) routes the static
    path through the execution plane: the order becomes a serial
    :class:`~repro.runtime.plan.FixPlan` (or, with no explicit order,
    the instance's color-class plan) executed by the given backend.
    Incompatible with ``chooser`` — an adaptive adversary is inherently
    one-at-a-time.

    Raises
    ------
    RankViolationError
        If the instance has rank greater than 3 — the regime the paper's
        Conjecture 1.5 leaves open.
    """
    if order is not None and chooser is not None:
        raise ValueError("pass either a static order or a chooser, not both")
    if scheduler is not None and chooser is not None:
        raise ValueError("a scheduler cannot execute an adaptive chooser")
    rank = instance.rank
    if rank > 3:
        raise RankViolationError(
            f"instance has rank {rank}; the paper's fixers support rank <= 3 "
            f"(Conjecture 1.5 covers larger ranks)"
        )
    fixer_class = Rank2Fixer if rank <= 2 else Rank3Fixer
    fixer = fixer_class(
        instance,
        require_criterion=require_criterion,
        validate_invariant=validate_invariant,
    )
    recorder = _obs_active()
    if recorder is not None:
        recorder.event(
            "fixer",
            "solve_start",
            rank=rank,
            num_variables=len(instance.variables),
            num_events=len(instance.events),
            adaptive=chooser is not None,
        )
    with _obs_span("fixer", "solve"):
        if chooser is not None:
            result = run_with_adversary(fixer, chooser)
        elif scheduler is not None:
            from repro.runtime.plan import build_serial_plan, plan_for_instance

            if order is not None:
                plan = build_serial_plan(instance, list(order))
            else:
                plan = plan_for_instance(instance)
            scheduler.execute(fixer, plan, instance)
            result = fixer.run(order=())
        else:
            result = fixer.run(order)
    if recorder is not None:
        recorder.event(
            "fixer",
            "solve_end",
            rank=rank,
            steps=result.num_steps,
            max_certified_bound=result.max_certified_bound,
        )
    return result
