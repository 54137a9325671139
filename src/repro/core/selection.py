"""Pure value-selection rules shared by the fixers and the LOCAL protocol.

Each function takes the variable to fix, the affected events, the current
bookkeeping state and a partial assignment, and returns the chosen value
together with the realised increases and the updated bookkeeping — with
no side effects.  :class:`repro.core.rank3.Rank3Fixer` applies these to
its global state; :mod:`repro.core.local_protocol` applies them to each
node's purely local view, which is what makes the message-level
implementation faithful: the decision provably depends only on 1-hop
information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.errors import NoGoodValueError
from repro.geometry import (
    TripleDecomposition,
    decompose_triple,
    representability_margin,
    representability_margin_array,
)
from repro.probability import BadEvent, DiscreteVariable, PartialAssignment

#: Margin below which a candidate value counts as invariant-violating.
MEMBERSHIP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Decision:
    """A fully-resolved fixing decision, not yet committed.

    The fixers' ``decide``/``commit`` split (see
    :mod:`repro.runtime.schedulers`): ``decide`` computes one of these
    against the current bookkeeping without mutating anything, and
    ``commit`` applies it.  Scheduler backends may compute decisions out
    of band (memoized, or in a worker process) and commit them in a
    deterministic merge order.
    """

    #: The variable being fixed.
    variable: DiscreteVariable
    #: The affected events, in bookkeeping order.
    events: Tuple[BadEvent, ...]
    #: The selection outcome (:class:`Rank1Choice` / :class:`Rank2Choice`
    #: / :class:`Rank3Choice`, or a fixer-specific record).
    choice: object


@dataclass(frozen=True)
class Rank1Choice:
    """Outcome of selecting a value for a rank-1 variable."""

    value: Hashable
    increase: float
    slack: float
    num_good_values: int


@dataclass(frozen=True)
class Rank2Choice:
    """Outcome of selecting a value for a rank-2 variable."""

    value: Hashable
    increases: Tuple[float, float]
    #: The updated pair of edge weights (w_u * Inc_u, w_v * Inc_v).
    new_weights: Tuple[float, float]
    slack: float
    num_good_values: int


@dataclass(frozen=True)
class RankRChoice:
    """Outcome of selecting a value for an arbitrary-rank variable."""

    value: Hashable
    increases: Tuple[float, ...]
    #: The updated per-event hyperedge weights (w_v * Inc_v for each v).
    new_weights: Tuple[float, ...]
    slack: float
    num_good_values: int


@dataclass(frozen=True)
class Rank3Choice:
    """Outcome of selecting a value for a rank-3 variable."""

    value: Hashable
    increases: Tuple[float, float, float]
    #: The new representable triple realised by the decomposition.
    triple: Tuple[float, float, float]
    decomposition: TripleDecomposition
    margin: float
    num_good_values: int

    @property
    def new_weights(self) -> Tuple[float, ...]:
        """The six phi values the decomposition writes:
        ``phi_uv^u, phi_uv^v, phi_uw^u, phi_uw^w, phi_vw^v, phi_vw^w``."""
        parts = self.decomposition
        return (parts.a1, parts.b1, parts.a2, parts.c2, parts.b3, parts.c3)


def select_rank1(
    variable: DiscreteVariable,
    event: BadEvent,
    assignment: PartialAssignment,
) -> Rank1Choice:
    """Pick a value with ``Inc <= 1`` (exists by averaging).

    The ``Inc`` ratios of all candidate values come from one batch
    :meth:`~repro.probability.BadEvent.conditional_increases` query (a
    single table pass under the compiled engine); candidates are still
    scanned in support order, so ties break exactly as before.
    """
    best_value, best_inc, good = None, math.inf, 0
    incs = event.conditional_increases(assignment, variable)
    for value, _prob in variable.support_items():
        inc = incs[value]
        if inc <= 1.0 + MEMBERSHIP_TOLERANCE:
            good += 1
        if inc < best_inc:
            best_inc, best_value = inc, value
    if best_inc > 1.0 + MEMBERSHIP_TOLERANCE:
        raise NoGoodValueError(
            f"rank-1 variable {variable.name!r}: min Inc = {best_inc} > 1"
        )
    return Rank1Choice(
        value=best_value,
        increase=best_inc,
        slack=1.0 - best_inc,
        num_good_values=good,
    )


def select_rank2(
    variable: DiscreteVariable,
    events: Sequence[BadEvent],
    weights: Tuple[float, float],
    assignment: PartialAssignment,
) -> Rank2Choice:
    """The weighted pair rule: minimise ``w_u*Inc_u + w_v*Inc_v`` (<= 2)."""
    event_u, event_v = events
    weight_u, weight_v = weights
    best_value, best_total = None, math.inf
    best_incs: Tuple[float, float] = (math.inf, math.inf)
    good = 0
    incs_u = event_u.conditional_increases(assignment, variable)
    incs_v = event_v.conditional_increases(assignment, variable)
    for value, _prob in variable.support_items():
        inc_u = incs_u[value]
        inc_v = incs_v[value]
        total = weight_u * inc_u + weight_v * inc_v
        if total <= 2.0 + MEMBERSHIP_TOLERANCE:
            good += 1
        if total < best_total:
            best_total, best_value = total, value
            best_incs = (inc_u, inc_v)
    if best_total > 2.0 + MEMBERSHIP_TOLERANCE:
        raise NoGoodValueError(
            f"rank-2 variable {variable.name!r}: minimum weighted increase "
            f"{best_total} exceeds 2"
        )
    return Rank2Choice(
        value=best_value,
        increases=best_incs,
        new_weights=(weight_u * best_incs[0], weight_v * best_incs[1]),
        slack=2.0 - best_total,
        num_good_values=good,
    )


def select_rankr(
    variable: DiscreteVariable,
    events: Sequence[BadEvent],
    weights: Tuple[float, ...],
    assignment: PartialAssignment,
) -> RankRChoice:
    """The naive weighted-budget rule: minimise ``sum_v w_v * Inc_v``.

    The budget is ``sum_v w_v`` (at most the rank by the averaging
    argument); a value within budget exists whenever the naive criterion
    held at the start.
    """
    budget = sum(weights)
    best_value, best_total = None, math.inf
    best_incs: Tuple[float, ...] = ()
    good = 0
    incs_by_event = [
        event.conditional_increases(assignment, variable) for event in events
    ]
    for value, _prob in variable.support_items():
        incs = tuple(by_event[value] for by_event in incs_by_event)
        total = sum(weight * inc for weight, inc in zip(weights, incs))
        if total <= budget + MEMBERSHIP_TOLERANCE:
            good += 1
        if total < best_total:
            best_total, best_value = total, value
            best_incs = incs
    if best_total > budget + MEMBERSHIP_TOLERANCE:
        raise NoGoodValueError(
            f"variable {variable.name!r}: minimum weighted increase "
            f"{best_total} exceeds the budget {budget}"
        )
    return RankRChoice(
        value=best_value,
        increases=best_incs,
        new_weights=tuple(
            weight * inc for weight, inc in zip(weights, best_incs)
        ),
        slack=budget - best_total,
        num_good_values=good,
    )


def select_rank3(
    variable: DiscreteVariable,
    events: Sequence[BadEvent],
    triple: Tuple[float, float, float],
    assignment: PartialAssignment,
) -> Rank3Choice:
    """The Variable Fixing Lemma's selection: maximise the S_rep margin.

    ``triple`` is the current representable triple ``(a, b, c)`` of the
    three affected events on the triangle's edges; the chosen value's
    scaled triple is decomposed into new edge values.
    """
    event_u, event_v, event_w = events
    a, b, c = triple
    best_value = None
    best_margin = -math.inf
    best_triple: Tuple[float, float, float] = (math.inf,) * 3
    best_incs: Tuple[float, float, float] = (math.inf,) * 3
    good = 0
    incs_u = event_u.conditional_increases(assignment, variable)
    incs_v = event_v.conditional_increases(assignment, variable)
    incs_w = event_w.conditional_increases(assignment, variable)
    for value, _prob in variable.support_items():
        inc_u = incs_u[value]
        inc_v = incs_v[value]
        inc_w = incs_w[value]
        candidate = (inc_u * a, inc_v * b, inc_w * c)
        margin = representability_margin(*candidate)
        if margin >= -MEMBERSHIP_TOLERANCE:
            good += 1
        if margin > best_margin:
            best_margin = margin
            best_value = value
            best_triple = candidate
            best_incs = (inc_u, inc_v, inc_w)
    if best_margin < -MEMBERSHIP_TOLERANCE:
        raise NoGoodValueError(
            f"rank-3 variable {variable.name!r}: every value is "
            f"({a:.6g}, {b:.6g}, {c:.6g})-evil "
            f"(best margin {best_margin:.3g})"
        )
    decomposition = decompose_triple(
        *best_triple,
        tolerance=max(MEMBERSHIP_TOLERANCE, -best_margin + 1e-12),
    )
    return Rank3Choice(
        value=best_value,
        increases=best_incs,
        triple=best_triple,
        decomposition=decomposition,
        margin=best_margin,
        num_good_values=good,
    )


# ----------------------------------------------------------------------
# Whole-class batch selection (the vector decide plane's fixer layer)
# ----------------------------------------------------------------------
# Each *_class function is the stacked counterpart of the scalar rule
# above it, applied to one wave of ops at once: ``incs_*`` matrices hold
# the Inc ratio of every candidate value of every op (``[N, S]``, padded
# columns masked out by ``mask``), the winner is a masked argmin/argmax
# (numpy's first-occurrence tie-break equals the scalar strict-inequality
# scan over support order), and the returned Choice objects are built
# from the winning lanes with the same scalar float arithmetic the
# per-op rules perform — so the choices are bit-identical.  On the first
# op without a good value the same NoGoodValueError is raised.


def select_rank1_class(
    variables: Sequence[DiscreteVariable],
    support_values: Sequence[Sequence[Hashable]],
    incs,
    mask,
) -> List[Rank1Choice]:
    """Stacked :func:`select_rank1` over one wave of rank-1 ops."""
    import numpy as np

    masked = np.where(mask, incs, math.inf)
    best = masked.argmin(axis=1)
    lanes = np.arange(len(variables))
    best_inc = masked[lanes, best]
    good = np.count_nonzero(
        mask & (incs <= 1.0 + MEMBERSHIP_TOLERANCE), axis=1
    )
    choices: List[Rank1Choice] = []
    for n, variable in enumerate(variables):
        inc = float(best_inc[n])
        if inc > 1.0 + MEMBERSHIP_TOLERANCE:
            raise NoGoodValueError(
                f"rank-1 variable {variable.name!r}: min Inc = {inc} > 1"
            )
        choices.append(
            Rank1Choice(
                value=support_values[n][int(best[n])],
                increase=inc,
                slack=1.0 - inc,
                num_good_values=int(good[n]),
            )
        )
    return choices


def select_rank2_class(
    variables: Sequence[DiscreteVariable],
    support_values: Sequence[Sequence[Hashable]],
    incs_u,
    incs_v,
    weights,
    mask,
) -> List[Rank2Choice]:
    """Stacked :func:`select_rank2` over one wave of rank-2 ops."""
    import numpy as np

    total = weights[:, 0:1] * incs_u + weights[:, 1:2] * incs_v
    masked = np.where(mask, total, math.inf)
    best = masked.argmin(axis=1)
    lanes = np.arange(len(variables))
    best_total = masked[lanes, best]
    good = np.count_nonzero(
        mask & (total <= 2.0 + MEMBERSHIP_TOLERANCE), axis=1
    )
    choices: List[Rank2Choice] = []
    for n, variable in enumerate(variables):
        chosen_total = float(best_total[n])
        if chosen_total > 2.0 + MEMBERSHIP_TOLERANCE:
            raise NoGoodValueError(
                f"rank-2 variable {variable.name!r}: minimum weighted "
                f"increase {chosen_total} exceeds 2"
            )
        j = int(best[n])
        inc_u = float(incs_u[n, j])
        inc_v = float(incs_v[n, j])
        weight_u = float(weights[n, 0])
        weight_v = float(weights[n, 1])
        choices.append(
            Rank2Choice(
                value=support_values[n][j],
                increases=(inc_u, inc_v),
                new_weights=(weight_u * inc_u, weight_v * inc_v),
                slack=2.0 - chosen_total,
                num_good_values=int(good[n]),
            )
        )
    return choices


def select_rankr_class(
    variables: Sequence[DiscreteVariable],
    support_values: Sequence[Sequence[Hashable]],
    incs_stack,
    weights,
    mask,
) -> List[RankRChoice]:
    """Stacked :func:`select_rankr` over one wave of equal-rank ops.

    ``incs_stack`` is a list of ``[N, S]`` matrices, one per affected
    event (every op of the wave must affect the same number of events);
    ``weights`` is ``[N, R]`` in the same event order.
    """
    import numpy as np

    count = len(variables)
    # Left-fold the weighted sums in event order, replicating the scalar
    # rule's ``sum(...)`` (which folds 0 + w_0*inc_0 + w_1*inc_1 + ...;
    # the leading 0 + x is exact for the non-negative terms involved).
    budget = np.zeros(count, dtype=np.float64)
    total = np.zeros((count, incs_stack[0].shape[1]), dtype=np.float64)
    for position, incs in enumerate(incs_stack):
        budget = budget + weights[:, position]
        total = total + weights[:, position : position + 1] * incs
    masked = np.where(mask, total, math.inf)
    best = masked.argmin(axis=1)
    lanes = np.arange(count)
    best_total = masked[lanes, best]
    good = np.count_nonzero(
        mask & (total <= budget[:, None] + MEMBERSHIP_TOLERANCE), axis=1
    )
    choices: List[RankRChoice] = []
    for n, variable in enumerate(variables):
        chosen_total = float(best_total[n])
        op_budget = float(budget[n])
        if chosen_total > op_budget + MEMBERSHIP_TOLERANCE:
            raise NoGoodValueError(
                f"variable {variable.name!r}: minimum weighted increase "
                f"{chosen_total} exceeds the budget {op_budget}"
            )
        j = int(best[n])
        incs = tuple(float(matrix[n, j]) for matrix in incs_stack)
        op_weights = [float(w) for w in weights[n]]
        choices.append(
            RankRChoice(
                value=support_values[n][j],
                increases=incs,
                new_weights=tuple(
                    weight * inc for weight, inc in zip(op_weights, incs)
                ),
                slack=op_budget - chosen_total,
                num_good_values=int(good[n]),
            )
        )
    return choices


def select_rank3_class(
    variables: Sequence[DiscreteVariable],
    support_values: Sequence[Sequence[Hashable]],
    incs_u,
    incs_v,
    incs_w,
    triples,
    mask,
) -> List[Rank3Choice]:
    """Stacked :func:`select_rank3` over one wave of rank-3 ops.

    ``triples`` is ``[N, 3]``: the current representable triple of each
    op's event triangle.  The masked argmax over the stacked margins
    replicates the scalar strict-``>`` first-win scan, and the winning
    decomposition is computed by the scalar :func:`decompose_triple`
    (one call per op, not per candidate).
    """
    import numpy as np

    cand_u = incs_u * triples[:, 0:1]
    cand_v = incs_v * triples[:, 1:2]
    cand_w = incs_w * triples[:, 2:3]
    margins = representability_margin_array(cand_u, cand_v, cand_w)
    masked = np.where(mask, margins, -math.inf)
    best = masked.argmax(axis=1)
    lanes = np.arange(len(variables))
    best_margin = masked[lanes, best]
    good = np.count_nonzero(
        mask & (margins >= -MEMBERSHIP_TOLERANCE), axis=1
    )
    choices: List[Rank3Choice] = []
    for n, variable in enumerate(variables):
        margin = float(best_margin[n])
        if margin < -MEMBERSHIP_TOLERANCE:
            a, b, c = (float(x) for x in triples[n])
            raise NoGoodValueError(
                f"rank-3 variable {variable.name!r}: every value is "
                f"({a:.6g}, {b:.6g}, {c:.6g})-evil "
                f"(best margin {margin:.3g})"
            )
        j = int(best[n])
        triple = (
            float(cand_u[n, j]), float(cand_v[n, j]), float(cand_w[n, j])
        )
        decomposition = decompose_triple(
            *triple,
            tolerance=max(MEMBERSHIP_TOLERANCE, -margin + 1e-12),
        )
        choices.append(
            Rank3Choice(
                value=support_values[n][j],
                increases=(
                    float(incs_u[n, j]),
                    float(incs_v[n, j]),
                    float(incs_w[n, j]),
                ),
                triple=triple,
                decomposition=decomposition,
                margin=margin,
                num_good_values=int(good[n]),
            )
        )
    return choices
