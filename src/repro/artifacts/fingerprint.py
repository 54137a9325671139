"""Canonical structural fingerprints for cross-instance artifact reuse.

An artifact (kernel, template, plan, parameter) may be shared between
two instances only if *everything* it bakes in is equal between them.
Two kinds of key exist, one per granularity:

* the **shape key** of an event (:func:`event_shape_key`) is name-free:
  a digest of the per-position value labels, the IEEE bytes of the
  per-position probabilities and the tabulated bad outcomes (sorted by
  ``repr``).  That is exactly what :meth:`EventKernel.from_outcomes`
  reads, and a kernel holds no names, so every event of one shape — in
  this instance or any other — shares one compiled kernel.  The theorems
  apply one local rule to every event, and the bundled generators emit
  one shape per scope size.
* the **instance fingerprint** (:func:`instance_fingerprint`) is
  content-exact, not rename-insensitive: the fixers' class commit pushes
  template-held variable objects, event names and value labels straight
  into fixer state (assignments, step records, phi ledgers), and
  ``EventKernel.value_index`` is label-addressed.  It covers event
  names, scopes, variable names, value labels, probability vectors and
  the tabulated bad-outcome sets, in construction order, so two
  instances fingerprint equal exactly when those all match: the labels
  ``0``, ``0.0`` and ``False`` differ, the probabilities ``0.0`` and
  ``-0.0`` differ, a renamed variable, a reordered scope and reordered
  events all differ.  Two instances produced by the same generator with
  the same parameters fingerprint identically.

The instance fingerprint is built in two halves.  A **front half**
turns the instance into raw :class:`ScopeColumns`: the distinct
variable objects ("slots") in first-appearance order, every scope as
slot indices, each slot's support and each event's shape, with one
representative per support and per shape.  There are two:

* the **walk** (:func:`_walk`) derives them from the objects of any
  event sequence, in whole-column passes.  Every other instance takes
  it: built by hand or by the other generators, loaded through
  :mod:`repro.lll.io`, or rebuilt as ``LLLInstance(events)``;
* the **declared columns** (:func:`declare_scopes`, :func:`_declared`)
  come from ``all_zero_edge_instance`` and ``all_zero_triple_instance``
  (hence ``build_family_instance``), whose build loops record every
  scope as the generator's own edge or triple indices and every
  event's shape by its scope length, as int64 arrays.  They have one
  support and one shape per scope length.  The ids are renumbered by
  first appearance and then checked against the objects in whole-column
  passes: each scope position's object *is* its slot's object, every
  slot shares one value tuple and one probability tuple, and each
  event's scope length and hint equal its shape representative's.  A
  disagreement raises :class:`~repro.errors.ScopeColumnsError`; it
  never falls back to the walk.

One shared **tail** (:func:`_finish`) turns either into the
:class:`ScopeLayout`: one support token per distinct support, one shape
key per shape from its representative (memoised on every event, so
kernel acquisition after a fingerprint pays one attribute read), one
name ``repr`` row per slot, and one digest over a few flat buffers.
Both halves run lazily inside :func:`scope_layout`, so the first solve
of an instance pays them.  The layout is kept on the instance with the
fingerprint, and :func:`repro.lll.verify.verify_solution` evaluates an
assignment on it without a second walk over the events.  The fingerprint
does not depend on the front half: a generated instance and a walked
copy of it fingerprint equal.

Fingerprintability requires every event to carry a *bad-outcomes hint*
(events built via :meth:`BadEvent.from_bad_outcomes` /
:meth:`BadEvent.all_equal`, or loaded through :mod:`repro.lll.io`): the
hint is the complete predicate semantics in tabulated form.  An event
defined only by an opaque predicate closure cannot be compared for
equality without enumerating it, so instances containing one are
reported unfingerprintable (``None``) and every store tier skips them —
they keep the exact legacy per-object cache behaviour.

Keys are 16-byte BLAKE2b digests rather than the structures themselves:
at n = 10^6 events the structures would cost ~0.5 GB.  The scheme
relies on ``repr`` faithfulness of names and value labels, the same
assumption the plan builders already make when they sort events by
``repr``.
"""

from __future__ import annotations

from array import array
from hashlib import blake2b
from itertools import accumulate, chain, count, repeat
from operator import attrgetter, eq, is_
from typing import List, Optional, Tuple

from repro.errors import ScopeColumnsError
from repro.planes import planes

#: Digest width. 16 bytes = 128 bits: collision probability is
#: negligible at any realistic artifact count.
_DIGEST_SIZE = 16


def _support_token(variable) -> Tuple[str, bytes]:
    """A variable's support, exactly: label ``repr`` and probability bytes."""
    return repr(variable.values), bytes(array("d", variable.probabilities))


def content_digest(content) -> bytes:
    """The digest of a structure of tuples, strings, bytes and numbers.

    Exact over such content: ``repr`` round-trips floats and keeps
    ``0.0``, ``-0.0`` and ``0`` apart.
    """
    return blake2b(
        repr(content).encode("utf-8"), digest_size=_DIGEST_SIZE
    ).digest()


def _shape_digest(supports: tuple, hint_reprs: tuple) -> bytes:
    """The shape key of per-position support tokens and a sorted hint."""
    return content_digest((supports, hint_reprs))


def _hint_reprs(hint) -> Optional[tuple]:
    return None if hint is None else tuple(sorted(map(repr, hint)))


#: Label types whose equal values always print equally.  ``bool`` and
#: ``float`` are not: ``0 == False == 0.0`` and ``0.0 == -0.0``.
_REPR_EXACT = frozenset((int, str))


def _hints_reprs(hints: list) -> list:
    """:func:`_hint_reprs` of each hint, once per distinct hint.

    Generators build a fresh hint per event, so hints are interned by
    value first — exact only when equal hints print equally, which
    holds when every label is of a :data:`_REPR_EXACT` type.  Otherwise
    every hint is printed on its own.
    """
    labels = chain.from_iterable(chain.from_iterable(filter(None, hints)))
    if not set(map(type, labels)) <= _REPR_EXACT:
        return list(map(_hint_reprs, hints))
    distinct, index = _intern(hints)
    reprs = list(map(_hint_reprs, distinct))
    return list(map(reprs.__getitem__, index))


def event_shape_key(event) -> Optional[bytes]:
    """The kernels-tier key of one event, or ``None``.

    Name-free: a digest over the event's per-position supports (value
    labels and probabilities) and its tabulated bad outcomes —
    everything :meth:`EventKernel.from_outcomes` reads — so a hit
    returns a kernel bit-identical to the one compilation would
    produce, whichever event of that shape compiled it.  ``None`` for
    an event without a bad-outcomes hint.  Memoised on the event
    (events are immutable once their hint is set).
    """
    key = event._shape_key
    if key is None:
        hint = event.bad_outcomes_hint
        if hint is None:
            return None
        key = event._shape_key = _shape_digest(
            tuple(map(_support_token, event.variables)), _hint_reprs(hint)
        )
    return key


def _intern(items: list) -> Tuple[list, List[int]]:
    """The distinct items in first-appearance order, and each item's index."""
    distinct = list(dict.fromkeys(items))
    index = dict(zip(distinct, count()))
    return distinct, list(map(index.__getitem__, items))


class ScopeLayout:
    """An instance's scopes as flat columns, from the fingerprint tail.

    A *slot* is one distinct variable object.  ``slot_names[s]`` is its
    name and ``slot_supports[s]`` its support, an index into
    ``support_values`` (the value tuples).  ``scope_slots`` lists the
    slot of every scope position of every event, in event order;
    ``offsets[i]`` is where event ``i``'s scope starts there.
    ``event_shapes[i]`` indexes ``shape_keys`` (``None`` for an event
    without a bad-outcomes hint).  Those three are int64 ``array`` objects,
    which numpy reads without a copy.  ``fingerprint`` is the instance
    fingerprint, ``None`` unless every event has a hint.
    """

    __slots__ = (
        "slot_names",
        "slot_supports",
        "support_values",
        "scope_slots",
        "offsets",
        "event_shapes",
        "shape_keys",
        "fingerprint",
    )


class ScopeColumns:
    """An instance's scopes as raw columns: what a front half hands the tail.

    ``slots`` are the distinct variable objects in first-appearance
    order and ``slot_supports[s]`` is slot ``s``'s support;
    ``support_slots[k]`` is the first slot of support ``k``.
    ``scope_slots`` lists the slot of every scope position in event
    order, ``scope_lengths`` each event's scope length and ``offsets``
    where each event's scope starts.  ``event_shapes[i]`` is event
    ``i``'s shape and ``shape_events[j]`` the first event of shape
    ``j``.  Supports and shapes are numbered in first-appearance order;
    the four position and event columns are int64 ``array`` objects.
    The slots need not be checked distinct: :func:`_finish` does.
    """

    __slots__ = (
        "slots",
        "slot_supports",
        "support_slots",
        "scope_slots",
        "scope_lengths",
        "offsets",
        "event_shapes",
        "shape_events",
    )


def _firsts(numbers: list) -> List[int]:
    """The first position of each number of a first-appearance numbering."""
    first = dict(zip(reversed(numbers), range(len(numbers) - 1, -1, -1)))
    return list(map(first.__getitem__, range(len(first))))


def _walk(events) -> ScopeColumns:
    """The front half for any event sequence: one walk over its objects.

    Written as whole-column ``map``/``zip`` passes rather than a loop
    per event or per variable, so the per-item work runs inside the
    interpreter's C iterators; only distinct supports are handled one
    by one.
    """
    scopes = list(map(attrgetter("variables"), events))
    flat = list(chain.from_iterable(scopes))
    ids = list(map(id, flat))
    objects = dict(zip(ids, flat))
    slots = dict(zip(objects, count()))
    flat_slots = list(map(slots.__getitem__, ids))
    variables = list(objects.values())

    # Supports, exactly: variables are grouped by value-tuple object and
    # the IEEE bytes of their probabilities (floats compare 0.0 == -0.0,
    # bytes do not), and only one per group is tokenised.
    values = list(map(id, map(attrgetter("values"), variables)))
    probabilities = list(map(bytes, map(
        array, repeat("d"), map(attrgetter("probabilities"), variables)
    )))
    representatives = dict(zip(zip(values, probabilities), variables))
    _, object_supports = _intern(
        list(map(_support_token, representatives.values()))
    )
    support_of = dict(zip(representatives, object_supports))
    slot_supports = list(
        map(support_of.__getitem__, zip(values, probabilities))
    )

    # Each event's shape: its supports by scope position and its hint.
    scope_lengths = array("q", map(len, scopes))
    flat_supports = list(map(slot_supports.__getitem__, flat_slots))
    starts = [0] + list(accumulate(scope_lengths))
    event_supports = map(
        tuple, map(flat_supports.__getitem__, map(slice, starts, starts[1:]))
    )
    hints = list(map(attrgetter("bad_outcomes_hint"), events))
    _, event_shapes = _intern(list(zip(event_supports, _hints_reprs(hints))))

    columns = ScopeColumns()
    columns.slots = variables
    columns.slot_supports = slot_supports
    columns.support_slots = _firsts(slot_supports)
    columns.scope_slots = array("q", flat_slots)
    columns.scope_lengths = scope_lengths
    columns.offsets = array("q", starts)
    columns.event_shapes = array("q", event_shapes)
    columns.shape_events = _firsts(event_shapes)
    return columns


def declare_scopes(instance, scope_ids: array, shape_ids: array) -> None:
    """Attach a generator's own numbering of the instance it just built.

    ``scope_ids`` holds the generator's index of the variable at every
    scope position (the events' scopes concatenated in event order) and
    ``shape_ids`` the generator's index of every event's shape, both as
    int64 ``array`` objects.  The generator declares one support: every
    variable shares one value tuple and one probability tuple.
    :func:`scope_layout` checks the declaration against the objects and
    builds the layout from it instead of walking the objects.
    """
    instance._declared_scopes = (scope_ids, shape_ids)


def _renumber(np, ids: array, size: int, what: str):
    """Declared ids renumbered by first appearance.

    Returns each item's new number and the first position of each new
    number.  The ids must lie in ``[0, size)``, ``size`` being the
    number of items.
    """
    ids = np.frombuffer(ids, np.int64)
    if len(ids) != size or (size and not 0 <= ids.min() <= ids.max() < size):
        raise ScopeColumnsError(
            f"the declared {what} ids do not fit the instance's {size} "
            f"{what} entries"
        )
    first = np.full(size, size, np.int64)
    np.minimum.at(first, ids, np.arange(size, dtype=np.int64))
    present = np.flatnonzero(first < size)
    order = present[np.argsort(first[present])]
    number = np.empty(size, np.int64)
    number[order] = np.arange(len(order), dtype=np.int64)
    return number[ids], first[order]


#: Whole-column reads of the slot attributes behind the public
#: properties of :class:`~repro.probability.BadEvent` and
#: :class:`~repro.probability.DiscreteVariable`: over the 18,000 objects
#: of a 6,000-event instance a property call per object costs about
#: twice as much as the read itself.
_SCOPE = attrgetter("_variables")
_HINT = attrgetter("_bad_outcomes_hint")
_NAME = attrgetter("_name")
_VALUES = attrgetter("_values")
_PROBABILITIES = attrgetter("_probabilities")


def _declared(events, scope_ids: array, shape_ids: array) -> ScopeColumns:
    """The front half for generator-declared columns, checked.

    The declared ids are renumbered by first appearance with numpy, so
    the columns come out exactly as :func:`_walk` numbers them.
    Whole-column passes then check them against the objects: every
    scope position holds its slot's object, every slot shares the first
    slot's value and probability tuples, and every event has its
    shape's first event's scope length and an equal hint.  (That slots
    are distinct objects :func:`_finish` checks.)  A disagreement
    raises :class:`ScopeColumnsError`; nothing falls back to the walk.
    """
    import numpy as np

    scopes = list(map(_SCOPE, events))
    flat = list(chain.from_iterable(scopes))
    scope_lengths = array("q", map(len, scopes))
    slot_of, slot_firsts = _renumber(np, scope_ids, len(flat), "scope")
    shape_of, shape_firsts = _renumber(np, shape_ids, len(events), "shape")
    slots = list(map(flat.__getitem__, slot_firsts.tolist()))
    scope_slots = array("q", slot_of.tobytes())
    if not all(map(is_, flat, map(slots.__getitem__, scope_slots))):
        raise ScopeColumnsError(
            "a scope position does not hold its declared variable"
        )
    if slots:
        first = slots[0]
        if not (
            all(map(is_, map(_VALUES, slots), repeat(first.values)))
            and all(map(is_, map(_PROBABILITIES, slots),
                        repeat(first.probabilities)))
        ):
            raise ScopeColumnsError(
                "the declared single support is not every variable's"
            )

    representative = shape_firsts[shape_of]
    lengths = np.frombuffer(scope_lengths, np.int64)
    if not np.array_equal(lengths, lengths[representative]):
        raise ScopeColumnsError(
            "an event's scope length differs from its declared shape's"
        )
    hints = list(map(_HINT, events))
    expected = map(hints.__getitem__, representative.tolist())
    if not all(map(eq, hints, expected)):
        raise ScopeColumnsError(
            "an event's hint differs from its declared shape's"
        )

    columns = ScopeColumns()
    columns.slots = slots
    columns.slot_supports = [0] * len(slots)
    columns.support_slots = [0] if slots else []
    columns.scope_slots = scope_slots
    columns.scope_lengths = scope_lengths
    offsets = np.zeros(len(lengths) + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    columns.offsets = array("q", offsets.tobytes())
    columns.event_shapes = array("q", shape_of.tobytes())
    columns.shape_events = shape_firsts.tolist()
    return columns


def _finish(events, columns: ScopeColumns) -> ScopeLayout:
    """The shared tail: raw columns to a :class:`ScopeLayout`.

    One support token per distinct support, one shape key per shape
    from its first event (memoised on every event of the shape), one
    name ``repr`` per slot, then the digest.  Slots with distinct name
    ``repr``s are distinct objects; where two share one, the slots are
    checked to be distinct objects.
    """
    slots = columns.slots
    slot_supports = columns.slot_supports
    scope_slots = columns.scope_slots
    starts = columns.offsets
    representatives = list(map(slots.__getitem__, columns.support_slots))
    supports = list(map(_support_token, representatives))

    keys: List[Optional[bytes]] = []
    for event in columns.shape_events:
        hint = events[event].bad_outcomes_hint
        positions = scope_slots[starts[event]:starts[event + 1]]
        keys.append(None if hint is None else _shape_digest(
            tuple([supports[slot_supports[s]] for s in positions]),
            _hint_reprs(hint),
        ))
    for event, key in zip(events, map(keys.__getitem__, columns.event_shapes)):
        event._shape_key = key

    # The variable table: one row per distinct name repr.  Supports need
    # no column: the shapes of the events holding a variable say its
    # support at every scope position.
    slot_names = list(map(_NAME, slots))
    names = list(map(repr, slot_names))
    scope_rows = scope_slots
    if len(set(names)) != len(names):
        if len(set(map(id, slots))) != len(slots):
            raise ScopeColumnsError("one variable object fills two slots")
        names, slot_rows = _intern(names)
        scope_rows = array("q", map(slot_rows.__getitem__, scope_slots))

    layout = ScopeLayout()
    layout.slot_names = slot_names
    layout.slot_supports = slot_supports
    layout.support_values = list(map(attrgetter("values"), representatives))
    layout.scope_slots = scope_slots
    layout.offsets = starts
    layout.event_shapes = columns.event_shapes
    layout.shape_keys = keys
    layout.fingerprint = None
    if None in keys:
        return layout

    # The header fixes every column's length, so the byte stream parses
    # one way only.
    header = repr((
        list(map(repr, map(_NAME, events))),
        names,
        keys,
    )).encode("utf-8")
    hasher = blake2b(digest_size=_DIGEST_SIZE)
    hasher.update(len(header).to_bytes(8, "little"))
    hasher.update(header)
    for column in (columns.scope_lengths, scope_rows, layout.event_shapes):
        hasher.update(column)
    layout.fingerprint = hasher.digest()
    return layout


def _layout(events) -> ScopeLayout:
    """The layout and fingerprint of any event sequence, by the walk."""
    return _finish(events, _walk(events))


def scope_layout(instance) -> ScopeLayout:
    """The instance's :class:`ScopeLayout`, built once and cached on it.

    Built from the generator's declared columns when it declared them
    (:func:`declare_scopes`), else by the walk.  Instances are
    immutable after construction, so the layout (and the fingerprint
    it carries) never goes stale.
    """
    layout = getattr(instance, "_scope_layout", None)
    if layout is None:
        events = instance.events
        declared = getattr(instance, "_declared_scopes", None)
        if declared is None:
            layout = _layout(events)
        else:
            layout = _finish(events, _declared(events, *declared))
            if len(set(layout.shape_keys)) != len(layout.shape_keys):
                raise ScopeColumnsError("two declared shapes are one shape")
            instance._declared_scopes = None
        instance._scope_layout = layout
    return layout


def instance_fingerprint(instance) -> Optional[bytes]:
    """The structural fingerprint of a whole instance, or ``None``.

    Content-exact over every event in construction order (event order
    determines variable first-appearance order, hence every iteration
    order the plan builders and the template lowering see).  Cached on
    the instance with its :func:`scope_layout`.
    """
    return scope_layout(instance).fingerprint


def instance_key(instance, *parts) -> Optional[Tuple]:
    """A store key scoped to an instance shape, or ``None``.

    Convenience for the template/plan/parameters tiers: the instance
    fingerprint plus discriminating parts (kind, rank, artifact name).
    ``None`` under ``REPRO_ARTIFACTS=off``, so the oracle never pays
    for a fingerprint.
    """
    if planes().artifacts == "off":
        return None
    fingerprint = instance_fingerprint(instance)
    if fingerprint is None:
        return None
    return (fingerprint,) + parts
