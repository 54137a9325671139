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

The instance fingerprint is one pass over the events.  Each distinct
variable contributes its name ``repr`` once and each distinct support
(value-label ``repr`` and probability bytes) is tokenised once; each
event contributes its name, its scope as variable indices and its
shape, and the pass ends with one digest over a few flat buffers.  The
shape key each event gets on the way is memoised on the event, so
kernel acquisition after a fingerprint pays one attribute read.  The
pass's columns — each scope as variable slots, each slot's name and
support, each event's shape — are kept on the instance with the
fingerprint as its :class:`ScopeLayout`, which
:func:`repro.lll.verify.verify_solution` evaluates an assignment on
without a second walk over the events.  The pass keeps no cache of its
own.

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
from operator import attrgetter
from typing import List, Optional, Tuple

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
    """An instance's scopes as flat columns, from the fingerprint pass.

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


def _layout(events) -> ScopeLayout:
    """The one-pass layout and fingerprint of an event sequence.

    Written as whole-column ``map``/``zip`` passes rather than a loop
    per event or per variable, so the per-item work runs inside the
    interpreter's C iterators; only distinct supports and distinct
    shapes are handled one by one.
    """
    layout = ScopeLayout()
    hints = list(map(attrgetter("bad_outcomes_hint"), events))
    scopes = list(map(attrgetter("variables"), events))
    scope_lengths = array("q", map(len, scopes))
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
    supports, object_supports = _intern(
        list(map(_support_token, representatives.values()))
    )
    support_of = dict(zip(representatives, object_supports))
    slot_supports = list(
        map(support_of.__getitem__, zip(values, probabilities))
    )
    support_values: List[tuple] = [()] * len(supports)
    for variable, support in zip(representatives.values(), object_supports):
        support_values[support] = variable.values

    # The variable table: one row per distinct name repr.  Supports need
    # no column: the shapes of the events holding a variable say its
    # support at every scope position.
    slot_names = list(map(attrgetter("name"), variables))
    names, slot_rows = _intern(list(map(repr, slot_names)))
    scope_rows = list(map(slot_rows.__getitem__, flat_slots))

    # Each event's shape: its supports by scope position and its hint.
    flat_supports = list(map(slot_supports.__getitem__, flat_slots))
    starts = [0] + list(accumulate(scope_lengths))
    ends = starts[1:]
    event_supports = map(
        tuple, map(flat_supports.__getitem__, map(slice, starts, ends))
    )
    shapes, event_shapes = _intern(
        list(zip(event_supports, _hints_reprs(hints)))
    )
    keys = [
        None if hint_reprs is None
        else _shape_digest(tuple([supports[s] for s in positions]), hint_reprs)
        for positions, hint_reprs in shapes
    ]
    for event, shape in zip(events, event_shapes):
        event._shape_key = keys[shape]

    layout.slot_names = slot_names
    layout.slot_supports = slot_supports
    layout.support_values = support_values
    layout.scope_slots = array("q", flat_slots)
    layout.offsets = array("q", starts)
    layout.event_shapes = array("q", event_shapes)
    layout.shape_keys = keys
    layout.fingerprint = None
    if None in hints:
        return layout

    # The header fixes every column's length, so the byte stream parses
    # one way only.
    header = repr((
        list(map(repr, map(attrgetter("name"), events))),
        names,
        keys,
    )).encode("utf-8")
    hasher = blake2b(digest_size=_DIGEST_SIZE)
    hasher.update(len(header).to_bytes(8, "little"))
    hasher.update(header)
    for column in (scope_lengths, array("q", scope_rows), layout.event_shapes):
        hasher.update(column)
    layout.fingerprint = hasher.digest()
    return layout


def scope_layout(instance) -> ScopeLayout:
    """The instance's :class:`ScopeLayout`, built once and cached on it.

    Instances are immutable after construction, so the layout (and the
    fingerprint it carries) never goes stale.
    """
    layout = getattr(instance, "_scope_layout", None)
    if layout is None:
        layout = instance._scope_layout = _layout(instance.events)
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
