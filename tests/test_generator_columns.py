"""Generator-declared scope columns against the object walk they replace.

``all_zero_edge_instance`` and ``all_zero_triple_instance`` (and so
``build_family_instance``) declare their variable and shape numbering
as int arrays, and :func:`repro.artifacts.fingerprint.scope_layout`
builds the layout from those instead of walking the objects.  The
reference is the walk, ``_layout(instance.events)``:

* the declared layout equals the walk's column for column, fingerprint
  included, over every family, alphabet, ``probabilities=`` (signed
  zeros and non-uniform), networkx and CSR inputs and tuple node labels;
* every shape key memoised on an event equals the key a freshly built
  copy of the event computes on its own;
* an ``lll.io`` round trip (which walks) fingerprints equal;
* corrupted declarations raise :class:`ScopeColumnsError` or, when the
  corruption only renames ids, still give the walk's layout: never a
  different layout.
"""

from __future__ import annotations

import math
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.artifacts.fingerprint import (
    ScopeLayout,
    _layout,
    declare_scopes,
    event_shape_key,
    instance_fingerprint,
    scope_layout,
)
from repro.errors import ScopeColumnsError
from repro.generators import (
    INSTANCE_FAMILIES,
    all_zero_edge_instance,
    all_zero_triple_instance,
    build_family_instance,
    cycle_graph,
    cyclic_triples,
    partition_rounds_triples,
    path_graph,
    random_regular_graph,
    random_tree,
    random_triples,
    torus_graph,
)
from repro.graph import CSRGraph
from repro.lll import LLLInstance
from repro.lll.io import instance_from_dict, instance_to_dict
from repro.probability import BadEvent, DiscreteVariable

SETTINGS = settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Generator inputs beyond the named families: a tree (several scope
#: lengths, so several shapes) and random triples (uneven counts).
SOURCES = INSTANCE_FAMILIES + ("tree", "random-triples", "partition-triples")


def _probabilities(draw, alphabet: int):
    kind = draw(st.sampled_from(
        ("default", "uniform", "signed-zero", "skewed")
    ))
    if kind == "default":
        return None
    if kind == "uniform":
        return [1.0 / alphabet] * alphabet
    if kind == "signed-zero":
        # A -0.0 entry: equal to 0.0, different probability bytes.
        rest = 1.0 / (alphabet - 1)
        return [rest] * (alphabet - 1) + [-0.0]
    weights = draw(st.lists(
        st.integers(1, 9), min_size=alphabet, max_size=alphabet
    ))
    return [w / sum(weights) for w in weights]


@st.composite
def generated(draw):
    """``(instance, rebuild)``: a generated instance and a builder of
    the same content."""
    source = draw(st.sampled_from(SOURCES))
    alphabet = draw(st.integers(2, 5))
    probabilities = _probabilities(draw, alphabet)
    seed = draw(st.integers(0, 50))
    as_csr = draw(st.booleans())
    if source in ("triples", "random-triples", "partition-triples"):
        if source == "triples":
            n = draw(st.integers(5, 24))
            triples = cyclic_triples(n)
        elif source == "partition-triples":
            n = 3 * draw(st.integers(2, 8))
            triples = partition_rounds_triples(n, 2, seed)
        else:
            drawn = random_triples(12, draw(st.integers(1, 8)), 3, seed)
            # Relabel the covered nodes 0..n-1: every node needs a triple.
            label = {node: i for i, node in enumerate(sorted(
                {node for triple in drawn for node in triple}
            ))}
            n = len(label)
            triples = [tuple(label[node] for node in t) for t in drawn]

        def rebuild():
            return all_zero_triple_instance(
                n, triples, alphabet, probabilities=probabilities
            )

        return rebuild(), rebuild
    if source == "cycle":
        graph = cycle_graph(draw(st.integers(3, 30)))
    elif source == "regular":
        n = 2 * draw(st.integers(3, 15))
        graph = random_regular_graph(n, draw(st.sampled_from((2, 3, 4))), seed)
    elif source == "tree":
        graph = random_tree(draw(st.integers(2, 30)), seed)
    else:
        side = draw(st.integers(3, 5))
        graph = torus_graph(side, side)
        # Tuple node labels stay tuples: CSR graphs need 0..n-1 nodes.
        as_csr = False
    if as_csr:
        graph = CSRGraph.from_networkx(graph)

    def rebuild():
        return all_zero_edge_instance(
            graph, alphabet, probabilities=probabilities
        )

    return rebuild(), rebuild


def assert_same_layout(layout: ScopeLayout, reference: ScopeLayout) -> None:
    for column in ScopeLayout.__slots__:
        mine, theirs = getattr(layout, column), getattr(reference, column)
        assert type(mine) is type(theirs), column
        assert mine == theirs, column


def fresh_copy(event: BadEvent) -> BadEvent:
    """The event rebuilt from new objects, with no memoised shape key."""
    scope = [
        DiscreteVariable(v.name, v.values, list(v.probabilities))
        for v in event.variables
    ]
    copy = BadEvent.from_bad_outcomes(
        event.name, scope, event.bad_outcomes_hint
    )
    assert copy._shape_key is None
    return copy


@SETTINGS
@given(case=generated())
def test_declared_layout_equals_the_walk(case):
    instance, rebuild = case
    assert instance._declared_scopes is not None
    layout = scope_layout(instance)
    assert instance._declared_scopes is None
    assert layout.fingerprint is not None
    assert_same_layout(layout, _layout(rebuild().events))
    walked = LLLInstance(instance.events)
    assert getattr(walked, "_declared_scopes", None) is None
    assert instance_fingerprint(walked) == layout.fingerprint


@SETTINGS
@given(case=generated())
def test_memoised_shape_keys_are_the_events_own(case):
    instance, _ = case
    scope_layout(instance)
    for event in instance.events:
        assert event._shape_key is not None
        assert event._shape_key == event_shape_key(fresh_copy(event))


@SETTINGS
@given(case=generated())
def test_round_trips_fingerprint_equal(case):
    instance, _ = case
    round_trip = instance_from_dict(instance_to_dict(instance))
    assert instance_fingerprint(round_trip) == instance_fingerprint(instance)


@pytest.mark.parametrize("family", INSTANCE_FAMILIES)
def test_family_builder_declares_its_columns(family):
    instance = build_family_instance(family, 12, alphabet=3, degree=3, seed=4)
    assert instance._declared_scopes is not None
    assert_same_layout(scope_layout(instance), _layout(instance.events))


def _corrupt(instance, which: str, index: int, value: int) -> None:
    scope_ids, shape_ids = instance._declared_scopes
    scope_ids, shape_ids = array("q", scope_ids), array("q", shape_ids)
    column = scope_ids if which == "scope" else shape_ids
    column[index % len(column)] = value
    declare_scopes(instance, scope_ids, shape_ids)


@SETTINGS
@given(
    case=generated(),
    which=st.sampled_from(("scope", "shape")),
    index=st.integers(0, 10 ** 6),
    value=st.integers(-3, 200),
)
def test_corrupted_declarations_never_give_another_layout(
    case, which, index, value
):
    instance, rebuild = case
    _corrupt(instance, which, index, value)
    try:
        layout = scope_layout(instance)
    except ScopeColumnsError:
        return
    # Only a renaming of ids survives the checks.
    assert_same_layout(layout, _layout(rebuild().events))


@pytest.mark.parametrize(
    "which, index, value",
    [
        # Position 0 now claims the variable of position 2.
        ("scope", 0, "ids[2]"),
        # Position 0 gets an id no other position has, while its
        # variable still appears in another event under its old id.
        ("scope", 0, "unused"),
        ("scope", 0, -1),
        ("scope", 0, "len"),
        # A leaf (length 1) declared with the length-2 shape.
        ("shape", "leaf", "path"),
        # A path node declared as its own new shape.
        ("shape", "path", "unused"),
        ("shape", 0, 10 ** 9),
    ],
)
def test_corrupted_declaration_raises(which, index, value):
    instance = all_zero_edge_instance(path_graph(6), 3)
    scope_ids, shape_ids = instance._declared_scopes
    ids = scope_ids if which == "scope" else shape_ids
    positions = {"leaf": 0, "path": 1}
    index = positions.get(index, index)
    value = {
        "ids[2]": scope_ids[2],
        "unused": max(ids) + 1,
        "len": len(ids),
        "path": shape_ids[1],
    }.get(value, value)
    assert ids[index] != value
    _corrupt(instance, which, index, value)
    with pytest.raises(ScopeColumnsError):
        scope_layout(instance)


def _declared(events, scope_ids, shape_ids):
    instance = LLLInstance(events)
    declare_scopes(instance, array("q", scope_ids), array("q", shape_ids))
    return instance


def test_a_second_support_raises():
    values = (0, 1)
    shared = DiscreteVariable("a", values)
    own = DiscreteVariable("b", values, (0.25, 0.75))
    events = [
        BadEvent.all_equal("x", [shared], 0),
        BadEvent.all_equal("y", [own], 0),
    ]
    with pytest.raises(ScopeColumnsError, match="support"):
        scope_layout(_declared(events, [0, 1], [0, 0]))


def test_a_differing_hint_raises():
    probabilities = (0.5, 0.5)
    a, b = (DiscreteVariable(n, (0, 1), probabilities) for n in "ab")
    events = [
        BadEvent.all_equal("x", [a], 0),
        BadEvent.all_equal("y", [b], 1),
    ]
    with pytest.raises(ScopeColumnsError, match="hint"):
        scope_layout(_declared(events, [0, 1], [0, 0]))
    # Declared as two shapes, the same objects are fine.
    instance = _declared(events, [0, 1], [0, 1])
    assert_same_layout(scope_layout(instance), _layout(events))


def test_a_differing_scope_length_raises():
    """Empty hints are equal at every length; the lengths still differ."""
    probabilities = (0.5, 0.5)
    a, b, c = (DiscreteVariable(n, (0, 1), probabilities) for n in "abc")
    events = [
        BadEvent.all_equal("x", [a], 7),
        BadEvent.all_equal("y", [b, c], 7),
    ]
    assert events[0].bad_outcomes_hint == events[1].bad_outcomes_hint
    with pytest.raises(ScopeColumnsError, match="length"):
        scope_layout(_declared(events, [0, 1, 2], [0, 0]))


def test_unused_generator_ids_are_skipped():
    """Ids need not be dense: a generator's numbering may skip some."""
    probabilities = (0.5, 0.5)
    a, b = (DiscreteVariable(n, (0, 1), probabilities) for n in "ab")
    events = [
        BadEvent.all_equal("x", [b, a], 0),
        BadEvent.all_equal("y", [a], 0),
    ]
    instance = _declared(events, [2, 0, 0], [1, 0])
    assert_same_layout(scope_layout(instance), _layout(events))


def test_signed_zero_support_is_kept_apart():
    graph = cycle_graph(8)
    plain = all_zero_edge_instance(graph, 3, probabilities=(0.5, 0.5, 0.0))
    signed = all_zero_edge_instance(graph, 3, probabilities=(0.5, 0.5, -0.0))
    assert math.copysign(1.0, signed.variables[0].probabilities[2]) < 0
    assert instance_fingerprint(plain) != instance_fingerprint(signed)
    assert instance_fingerprint(signed) == instance_fingerprint(
        LLLInstance(signed.events)
    )


def test_generated_variables_share_one_support_object():
    instance = all_zero_edge_instance(cycle_graph(7), 4)
    first = instance.variables[0]
    assert all(v.values is first.values for v in instance.variables)
    assert all(
        v.probabilities is first.probabilities for v in instance.variables
    )
