"""Verification helpers: solution checking and precondition checking.

The fixers of :mod:`repro.core` promise assignments that avoid every bad
event.  :func:`verify_solution` checks that promise independently, and
:func:`check_preconditions` validates an instance against the rank bound and
the exponential criterion before an algorithm runs.

:func:`verify_solution` reads only the instance and the assignment.  It
works on the instance's :class:`~repro.artifacts.fingerprint.ScopeLayout`
(the columns of the fingerprint pass): one value index per variable,
one array pass per distinct event shape — the ``[events, width]``
matrix of value indices is encoded into mixed-radix codes and matched
against the shape kernel's bad codes.  An event falls back to the
per-event :meth:`BadEvent.occurs` only for a reason in
:data:`SCALAR_REASONS`, and every such event is counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Hashable, Optional, Tuple

from repro.artifacts.fingerprint import scope_layout
from repro.errors import CriterionViolationError, RankViolationError
from repro.lll.criteria import ExponentialCriterion
from repro.lll.instance import LLLInstance
from repro.obs.recorder import active as _obs_active
from repro.planes import planes
from repro.probability import PartialAssignment
from repro.probability import engine as _engine

#: Why an event is evaluated by the per-event ``BadEvent.occurs`` instead
#: of in its shape group's array pass: the naive engine (the oracle) is
#: active; the event has no bad-outcomes hint, hence no shape key; its
#: scope is too large to compile a kernel; or a value of its scope is
#: outside the variable's value list (``BadEvent.predicate_occurs`` then
#: answers, as ``occurs`` would).
SCALAR_REASONS = ("naive_engine", "no_shape", "no_kernel", "outside_index_map")


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking an assignment against an instance."""

    #: Whether every variable of the instance is fixed.
    complete: bool
    #: Names of bad events that occur (empty for a valid solution).
    occurring: Tuple[Hashable, ...]
    #: Names of variables that are still unfixed.
    unfixed: Tuple[Hashable, ...]
    #: Names of fixed variables whose value is not in the variable's
    #: value list (an unhashable value never is), in instance order.
    invalid: Tuple[Hashable, ...] = ()

    @property
    def ok(self) -> bool:
        """True iff the assignment is complete, takes every value from its
        variable's value list and avoids every bad event."""
        return self.complete and not self.occurring and not self.invalid

    def __bool__(self) -> bool:
        return self.ok


def verify_solution(
    instance: LLLInstance, assignment: PartialAssignment
) -> VerificationResult:
    """Check whether ``assignment`` is a complete, valid, event-avoiding solution."""
    values = assignment._values
    names = instance.variable_names
    if not all(map(values.__contains__, names)):
        unfixed = tuple(name for name in names if name not in values)
        invalid = tuple(
            variable.name
            for variable in instance.variables
            if variable.name in values
            and values[variable.name] not in variable.values
        )
        return VerificationResult(
            complete=False, occurring=(), unfixed=unfixed, invalid=invalid
        )
    np = _engine._numpy()
    layout = scope_layout(instance)
    slot_index = _slot_indices(np, layout, values)
    invalid: Tuple[Hashable, ...] = ()
    outside = np.flatnonzero(slot_index < 0)
    if len(outside):
        slot_names = layout.slot_names
        invalid_names = {slot_names[slot] for slot in outside.tolist()}
        invalid = tuple(name for name in names if name in invalid_names)
    events = instance.events
    occurs = np.zeros(len(events), dtype=bool)
    scalar = _occurrence_in_columns(np, events, layout, slot_index, occurs)
    if scalar:
        _occurrence_per_event(events, assignment, scalar, occurs)
    occurring = tuple(events[index].name for index in np.flatnonzero(occurs))
    return VerificationResult(
        complete=True, occurring=occurring, unfixed=(), invalid=invalid
    )


def _slot_indices(np, layout, values):
    """Each slot's value index in its support, ``-1`` outside the value list.

    One gather from the assignment per distinct variable object, and
    one index map per distinct support.
    """
    slot_values = list(map(values.__getitem__, layout.slot_names))
    count = len(slot_values)
    maps = [
        {value: index for index, value in enumerate(support)}
        for support in layout.support_values
    ]
    try:
        lookups = [index_map.get for index_map in maps]
        return _indices_in(np, layout, slot_values, lookups, count)
    except TypeError:
        # An unhashable value (say a JSON list) is in no value list.
        lookups = [
            partial(_index_or_outside, index_map) for index_map in maps
        ]
        return _indices_in(np, layout, slot_values, lookups, count)


def _index_or_outside(index_map, value, outside):
    try:
        return index_map.get(value, outside)
    except TypeError:
        return outside


def _indices_in(np, layout, slot_values, lookups, count):
    if len(lookups) == 1:
        return np.fromiter(
            map(lookups[0], slot_values, repeat(-1)), dtype=np.int64, count=count
        )
    slot_index = np.empty(count, dtype=np.int64)
    supports = np.asarray(layout.slot_supports, dtype=np.int64)
    for support, lookup in enumerate(lookups):
        slots = np.flatnonzero(supports == support)
        slot_index[slots] = np.fromiter(
            map(lookup, map(slot_values.__getitem__, slots.tolist()),
                repeat(-1)),
            dtype=np.int64,
            count=len(slots),
        )
    return slot_index


def _shape_groups(np, layout):
    """``(shape, event indices)`` per distinct shape, in shape order."""
    keys = layout.shape_keys
    shapes = np.frombuffer(layout.event_shapes, dtype=np.int64)
    if len(keys) == 1:
        return [(0, np.arange(len(shapes)))]
    order = np.argsort(shapes, kind="stable")
    bounds = np.searchsorted(shapes[order], np.arange(len(keys) + 1))
    return [
        (shape, order[bounds[shape]:bounds[shape + 1]])
        for shape in range(len(keys))
    ]


def _occurrence_in_columns(np, events, layout, slot_index, occurs):
    """Evaluate every event that has a shape group, one array pass per shape.

    Writes ``occurs`` for each event evaluated here and returns
    ``{reason: [event index, ...]}`` for the events left to
    :func:`_occurrence_per_event`.
    """
    if planes().engine == "naive":
        return {"naive_engine": list(range(len(events)))}
    scope_index = slot_index[np.frombuffer(layout.scope_slots, dtype=np.int64)]
    offsets = np.frombuffer(layout.offsets, dtype=np.int64)
    scalar: dict = {}
    for shape, members in _shape_groups(np, layout):
        if layout.shape_keys[shape] is None:
            scalar.setdefault("no_shape", []).extend(members.tolist())
            continue
        kernel = events[int(members[0])].compiled_kernel()
        if kernel is None:
            scalar.setdefault("no_kernel", []).extend(members.tolist())
            continue
        index = scope_index[
            offsets[members][:, None] + np.arange(kernel.width)
        ]
        codes = index @ np.asarray(kernel.strides, dtype=np.int64)
        bad = np.isin(codes, kernel.bad_codes())
        outside = (index < 0).any(axis=1)
        if outside.any():
            bad &= ~outside
            scalar.setdefault("outside_index_map", []).extend(
                members[outside].tolist()
            )
        occurs[members] = bad
        _engine.STATS.verify_columnar_events += int(
            len(members) - outside.sum()
        )
    return scalar


def _occurrence_per_event(events, assignment, scalar, occurs):
    """The per-event ``BadEvent.occurs`` for the events ``scalar`` lists.

    Each event is counted under its reason, in the engine stats and on
    the active recorder.
    """
    recorder = _obs_active()
    for reason, members in scalar.items():
        for index in members:
            event = events[index]
            occurs[index] = _occurs(event, assignment, reason)
        _engine.STATS.verify_scalar_events += len(members)
        if recorder is not None:
            recorder.count("verify", f"scalar_{reason}", len(members))


def _occurs(event, assignment, reason: str) -> bool:
    """Whether ``event`` occurs, evaluated on its own.

    An event whose predicate cannot take an unhashable value of its
    scope does not occur: no tabulated bad outcome holds such a value,
    and the value itself is reported ``invalid``.
    """
    try:
        if reason == "outside_index_map":
            return event.predicate_occurs(assignment)
        return event.occurs(assignment)
    except TypeError:
        if all(map(_hashable, map(assignment.value_of, event.scope_names))):
            raise
        return False


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class PreconditionReport:
    """Parameters gathered while checking an instance's preconditions."""

    p: float
    d: int
    rank: int
    threshold: float

    @property
    def slack(self) -> float:
        """``threshold / p`` (``inf`` if p is 0)."""
        if self.p == 0.0:
            return float("inf")
        return self.threshold / self.p


def check_local_criterion(instance: LLLInstance) -> None:
    """Check the per-event exponential criterion ``p_v < 2^-deg(v)``.

    This is the condition the paper's bookkeeping argument actually uses:
    every edge value is at most 2, so the final certified bound of event
    ``v`` is ``p_v * 2^deg(v)``.  It is implied by the paper's global
    statement ``p < 2^-d`` but is strictly weaker on irregular dependency
    graphs (e.g. trees), where low-degree events tolerate much larger
    probabilities than ``2^-d``.

    Raises
    ------
    CriterionViolationError
        Naming the first event that violates its local bound.
    """
    from repro.core.indexing import event_incidence

    degrees = event_incidence(instance).degrees.tolist()
    for event, degree in zip(instance.events, degrees):
        probability = event.probability()
        if probability >= 2.0 ** (-degree):
            raise CriterionViolationError(
                f"event {event.name!r} violates the local criterion: "
                f"p={probability:.6g} >= 2^-deg = {2.0 ** (-degree):.6g} "
                f"(deg={degree})"
            )


def check_preconditions(
    instance: LLLInstance,
    max_rank: Optional[int] = None,
    require_criterion=True,
) -> PreconditionReport:
    """Validate an instance for the paper's deterministic fixers.

    Parameters
    ----------
    instance:
        The LLL instance to check.
    max_rank:
        If given, raise :class:`RankViolationError` when any variable
        affects more than this many events.
    require_criterion:
        ``True`` (default) enforces the paper's global criterion
        ``p < 2^-d``; the string ``"local"`` enforces the strictly weaker
        per-event criterion ``p_v < 2^-deg(v)`` (see
        :func:`check_local_criterion`); ``False`` skips the check.

    Returns
    -------
    PreconditionReport
        The measured ``p``, ``d``, rank and exponential threshold.
    """
    rank = instance.rank
    if max_rank is not None and rank > max_rank:
        raise RankViolationError(
            f"instance has rank {rank}, but the algorithm supports at most "
            f"rank {max_rank}"
        )
    p = instance.max_event_probability
    d = instance.max_dependency_degree
    criterion = ExponentialCriterion()
    if require_criterion == "local":
        check_local_criterion(instance)
    elif require_criterion:
        criterion.require(p, d, context=f"instance with {instance.num_events} events")
    return PreconditionReport(p=p, d=d, rank=rank, threshold=criterion.threshold(d))
