"""The event incidence against the networkx dependency graph it replaces.

:func:`repro.core.indexing.event_incidence` is the one source of
dependency structure on the solve path.  The reference for every
consumer is the networkx ``instance.dependency_graph`` walk the solve
path used before, kept here as test code:

* each event's neighbours and the edge list in the graph's own
  ``neighbors`` and ``edges()`` orders;
* ``indexed_csr`` equal to the CSR of the relabeled networkx graph;
* ``max_dependency_degree`` and the local criterion's degrees equal to
  the graph's degrees;
* ``build_plan_rank2`` and ``build_plan_rank3`` equal to the
  per-variable assembly loops they replaced, and ``build_serial_plan``'s
  ops equal to ``events_of_variable``;
* the P* bounds after a solve equal, bit for bit, to the product of
  each event's phi sides walked in ``neighbors`` order.

Cases cover every generator family, mixed-rank instances, events that
hold their own copies of a shared variable, rank-1 variables, edgeless
instances and arbitrary small scope structures.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coloring import compute_edge_coloring, compute_two_hop_coloring
from repro.core.indexing import (
    event_incidence,
    indexed_csr,
    indexed_dependency_network,
)
from repro.core.rank3 import Rank3Fixer
from repro.core.sequential import solve
from repro.errors import CriterionViolationError, SimulationError
from repro.generators import (
    INSTANCE_FAMILIES,
    build_family_instance,
    cyclic_triples,
    mixed_rank_instance,
    random_regular_graph,
)
from repro.graph import CSRGraph
from repro.lll import LLLInstance, verify_solution
from repro.lll.verify import check_local_criterion, check_preconditions
from repro.planes import PLANE_TABLE, using_planes
from repro.probability import BadEvent, DiscreteVariable
from repro.runtime import SerialScheduler
from repro.runtime.plan import (
    ColorClass,
    FixCell,
    FixOp,
    FixPlan,
    build_plan_rank2,
    build_plan_rank3,
    build_serial_plan,
)

GRAPH_PLANES = ("vectorized", "reference")

#: A binary variable whose bad value 0 has probability 2^-8: an
#: all-zero event then has p <= 2^-8 < 2^-d for every d <= 7.
RARE = ((0, 1), (2.0**-8, 1.0 - 2.0**-8))


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def family_instance(family, n, seed):
    alphabet = 5 if family == "triples" else 3
    return build_family_instance(
        family, n, alphabet=alphabet, degree=3, seed=seed
    )


def per_event_copies(instance):
    """The same instance with every event holding its own variable
    objects (equal name and distribution, distinct objects)."""
    return LLLInstance(
        [
            BadEvent.from_bad_outcomes(
                event.name,
                [
                    DiscreteVariable(v.name, v.values, v.probabilities)
                    for v in event.variables
                ],
                event.bad_outcomes_hint,
            )
            for event in instance.events
        ]
    )


def with_private_variables(instance):
    """``instance`` plus one rank-1 variable per event, placed first in
    its scope so variable order interleaves ranks."""
    events = []
    for event in instance.events:
        own = DiscreteVariable(("own", event.name), *RARE)
        scope = [own, *event.variables]
        events.append(BadEvent.all_equal(event.name, scope, 0))
    return LLLInstance(events)


def scoped_instance(names, scopes, num_variables, labels=None):
    """Events ``names`` over rare binary variables ``("x", labels[j])``
    (``labels`` defaults to ``0, 1, ...``); an event with an empty
    scope gets a private variable instead."""
    if labels is None:
        labels = range(num_variables)
    variables = [DiscreteVariable(("x", label), *RARE) for label in labels]
    events = []
    for name, scope in zip(names, scopes):
        members = [variables[j] for j in sorted(scope)]
        if not members:
            members = [DiscreteVariable(("own", name), *RARE)]
        events.append(BadEvent.all_equal(name, members, 0))
    return LLLInstance(events)


def edgeless_instance(num_events):
    return scoped_instance(list(range(num_events)), [()] * num_events, 0)


@st.composite
def scope_structures(draw, max_rank=3):
    """Arbitrary small instances: each variable joins 1..max_rank random
    events, event names are shuffled ints or tuples, and variable labels
    are shuffled so that name ``repr`` order is not scope order."""
    num_events = draw(st.integers(min_value=1, max_value=7))
    num_variables = draw(st.integers(min_value=0, max_value=9))
    scopes = [set() for _ in range(num_events)]
    for variable in range(num_variables):
        members = draw(
            st.sets(
                st.integers(min_value=0, max_value=num_events - 1),
                min_size=1,
                max_size=min(max_rank, num_events),
            )
        )
        for event in members:
            scopes[event].add(variable)
    labels = draw(st.permutations(range(num_events)))
    tupled = draw(st.booleans())
    names = [("e", label) if tupled else label for label in labels]
    variable_labels = draw(st.permutations(range(num_variables)))
    return scoped_instance(names, scopes, num_variables, variable_labels)


def named_cases():
    regular = random_regular_graph(12, 3, seed=2)
    mixed = mixed_rank_instance(regular, cyclic_triples(12), 3, 5)
    triples = family_instance("triples", 10, 0)
    return {
        "mixed-rank": mixed,
        "per-event-copies": per_event_copies(mixed),
        "rank-1-variables": with_private_variables(triples),
        "rank-1-edge-variables": with_private_variables(
            family_instance("cycle", 12, 0)
        ),
        "edgeless": edgeless_instance(5),
        "single-event": edgeless_instance(1),
    }


# ----------------------------------------------------------------------
# References: the networkx walks the solve path used to run
# ----------------------------------------------------------------------
def reference_op(instance, name):
    return FixOp(
        variable=name,
        events=tuple(e.name for e in instance.events_of_variable(name)),
    )


def reference_plan_rank2(instance):
    """The per-variable assembly loop ``build_plan_rank2`` replaced."""
    network, to_index, _from_index = indexed_dependency_network(instance)
    if network.graph.number_of_edges() == 0:
        palette, rounds, colors = 0, 0, {}
    else:
        coloring = compute_edge_coloring(network)
        palette, rounds = coloring.palette, coloring.host_rounds
        colors = coloring.colors

    singles_by_event = {}
    by_edge = {}
    for variable in instance.variables:
        events = instance.events_of_variable(variable.name)
        if len(events) == 1:
            singles_by_event.setdefault(events[0].name, []).append(
                variable.name
            )
        else:
            u = to_index[events[0].name]
            v = to_index[events[1].name]
            by_edge.setdefault((min(u, v), max(u, v)), []).append(
                variable.name
            )
    classes = []
    if singles_by_event:
        cells = tuple(
            FixCell(
                owner=event_name,
                ops=tuple(
                    reference_op(instance, name)
                    for name in sorted(names, key=repr)
                ),
            )
            for event_name, names in sorted(
                singles_by_event.items(), key=lambda item: repr(item[0])
            )
        )
        classes.append(ColorClass(color=-1, cells=cells))
    cells_by_color = {}
    for edge_key, names in sorted(by_edge.items()):
        cells_by_color.setdefault(colors[edge_key], []).append(
            FixCell(
                owner=edge_key,
                ops=tuple(
                    reference_op(instance, name)
                    for name in sorted(names, key=repr)
                ),
            )
        )
    for color in range(palette):
        classes.append(
            ColorClass(color=color, cells=tuple(cells_by_color.get(color, ())))
        )
    return FixPlan(
        kind="edge-coloring",
        classes=tuple(classes),
        palette=palette,
        coloring_rounds=rounds,
    )


def reference_plan_rank3(instance):
    """The per-variable assembly loop ``build_plan_rank3`` replaced."""
    network, _to_index, from_index = indexed_dependency_network(instance)
    if network.graph.number_of_edges() == 0:
        palette, rounds, colors = 1, 0, dict.fromkeys(from_index, 0)
    else:
        coloring = compute_two_hop_coloring(network)
        palette, rounds = coloring.palette, coloring.host_rounds
        colors = coloring.colors

    variables_of_node = {event.name: [] for event in instance.events}
    for variable in instance.variables:
        for event in instance.events_of_variable(variable.name):
            variables_of_node[event.name].append(variable.name)
    nodes_by_color = {}
    for index, color in colors.items():
        nodes_by_color.setdefault(color, []).append(index)
    assigned = set()
    classes = []
    for color in range(palette):
        cells = []
        for index in sorted(nodes_by_color.get(color, ())):
            event_name = from_index[index]
            batch = [
                name
                for name in sorted(variables_of_node[event_name], key=repr)
                if name not in assigned
            ]
            if batch:
                assigned.update(batch)
                cells.append(
                    FixCell(
                        owner=event_name,
                        ops=tuple(
                            reference_op(instance, name) for name in batch
                        ),
                    )
                )
        classes.append(ColorClass(color=color, cells=tuple(cells)))
    return FixPlan(
        kind="two-hop-coloring",
        classes=tuple(classes),
        palette=palette,
        coloring_rounds=rounds,
    )


def walked_bounds(instance, pstar):
    """``p_v`` times ``phi_e^v`` over ``dependency_graph.neighbors(v)``,
    multiplied left to right."""
    graph = instance.dependency_graph
    initial = pstar.initial_probabilities
    entries = pstar.entries
    bounds = {}
    for event in instance.events:
        name = event.name
        product = 1.0
        for neighbor in graph.neighbors(name):
            product *= entries[frozenset((name, neighbor))][name]
        bounds[name] = initial[name] * product
    return bounds


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def check_orders(instance):
    incidence = event_incidence(instance)
    graph = instance.dependency_graph
    names = incidence.names
    assert names == [event.name for event in instance.events]
    nbr_ptr = incidence.nbr_ptr.tolist()
    for index, name in enumerate(names):
        slots = range(nbr_ptr[index], nbr_ptr[index + 1])
        neighbors = [names[incidence.nbr_events[k]] for k in slots]
        assert neighbors == list(graph.neighbors(name))
        for k in slots:
            edge = int(incidence.nbr_edges[k])
            ends = {int(incidence.edge_u[edge]), int(incidence.edge_v[edge])}
            assert ends == {index, int(incidence.nbr_events[k])}
    edges = list(
        zip(
            map(names.__getitem__, incidence.edge_u.tolist()),
            map(names.__getitem__, incidence.edge_v.tolist()),
        )
    )
    assert edges == list(graph.edges())
    assert incidence.degrees.tolist() == [
        graph.degree(name) for name in names
    ]
    var_ptr = incidence.var_ptr.tolist()
    for row, variable in enumerate(instance.variable_names):
        events = incidence.var_events[var_ptr[row]:var_ptr[row + 1]]
        assert [names[i] for i in events.tolist()] == [
            event.name for event in instance.events_of_variable(variable)
        ]


def check_csr(instance):
    csr, to_index, from_index = indexed_csr(instance)
    relabeled = nx.relabel_nodes(instance.dependency_graph, to_index)
    edges = list(relabeled.edges())
    expected = CSRGraph.from_edges(
        instance.num_events,
        np.array([u for u, _ in edges], dtype=np.int64),
        np.array([v for _, v in edges], dtype=np.int64),
    )
    assert csr.indptr.tolist() == expected.indptr.tolist()
    assert csr.indices.tolist() == expected.indices.tolist()
    assert to_index == {
        name: index
        for index, name in enumerate(
            sorted((event.name for event in instance.events), key=repr)
        )
    }
    assert from_index == {index: name for name, index in to_index.items()}


def check_degree(instance):
    graph = instance.dependency_graph
    expected = max((degree for _, degree in graph.degree()), default=0)
    assert instance.max_dependency_degree == expected


def outcome(build, instance):
    try:
        return build(instance)
    except SimulationError as error:
        return str(error)


def check_plan(instance):
    assert build_plan_rank3(instance) == reference_plan_rank3(instance)
    # Rank 3 too: the rank-2 builder takes it (a variable claims its
    # first two events' edge), and there edge classes can be empty or
    # conflict; a conflict must raise the reference's error.
    assert outcome(build_plan_rank2, instance) == outcome(
        reference_plan_rank2, instance
    )
    names = list(instance.variable_names)
    for order in (None, names[::-1]):
        plan = build_serial_plan(instance, order)
        assert [cls.cells for cls in plan.classes] == [
            (FixCell(owner=name, ops=(reference_op(instance, name),)),)
            for name in (names if order is None else order)
        ]


def check_bounds(instance):
    fixer = Rank3Fixer(instance, require_criterion=False)
    pstar = fixer.pstar
    assert pstar.certified_bounds() == walked_bounds(instance, pstar)
    fixer.run()
    bounds = fixer.certified_bounds()
    walked = walked_bounds(instance, pstar)
    assert list(bounds) == list(walked)
    assert [b.hex() for b in bounds.values()] == [
        b.hex() for b in walked.values()
    ]
    for name, bound in walked.items():
        assert pstar.certified_bound(name).hex() == bound.hex()
    pstar.check(fixer.assignment)
    # Values whose products round differently in another order.
    for index, (u, v) in enumerate(instance.dependency_graph.edges()):
        value = 0.61 + (index % 13) / 97
        pstar.set_edge(u, v, value, 1.9 - value)
    walked = walked_bounds(instance, pstar)
    assert [b.hex() for b in pstar.certified_bounds().values()] == [
        b.hex() for b in walked.values()
    ]
    for name, bound in walked.items():
        assert pstar.certified_bound(name).hex() == bound.hex()


def check_everything(instance):
    check_orders(instance)
    for graph in GRAPH_PLANES:
        # Artifacts off: ``d`` and the plan are computed, not served.
        with using_planes(graph=graph, artifacts="off"):
            check_csr(instance)
            check_degree(instance)
            check_plan(instance)
    check_bounds(instance)


@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(INSTANCE_FAMILIES),
    n=st.integers(min_value=5, max_value=14),
    seed=st.integers(min_value=0, max_value=5),
)
def test_families_match_the_networkx_walk(family, n, seed):
    if family == "regular" and n % 2:
        n += 1
    check_everything(family_instance(family, n, seed))


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=scope_structures())
def test_arbitrary_scopes_match_the_networkx_walk(instance):
    check_everything(instance)


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=scope_structures(max_rank=2))
def test_rank2_scopes_match_the_reference_assembly(instance):
    for graph in GRAPH_PLANES:
        with using_planes(graph=graph, artifacts="off"):
            check_plan(instance)


@settings(deadline=None, max_examples=20)
@given(instance=scope_structures(max_rank=5))
def test_high_rank_incidence_matches_the_networkx_graph(instance):
    check_orders(instance)
    with using_planes(artifacts="off"):
        check_csr(instance)
        check_degree(instance)


@pytest.mark.parametrize("case", sorted(named_cases()))
def test_named_cases_match_the_networkx_walk(case):
    check_everything(named_cases()[case])


@pytest.mark.parametrize("family", ["regular", "triples"])
def test_default_solve_builds_no_networkx_graph(family):
    fast = {field: value for field, _env, value, _oracle in PLANE_TABLE}
    with using_planes(**fast):
        instance = family_instance(family, 12, 1)
        assert instance.rank == (3 if family == "triples" else 2)
        result = solve(instance, scheduler=SerialScheduler())
        assert verify_solution(instance, result.assignment).ok
    assert instance._dependency_graph is None


def test_local_criterion_reads_the_incidence_degrees():
    for family in INSTANCE_FAMILIES:
        instance = family_instance(family, 12, 1)
        check_preconditions(instance, require_criterion="local")
        assert instance._dependency_graph is None
        degrees = event_incidence(instance).degrees.tolist()
        graph = instance.dependency_graph
        assert degrees == [graph.degree(e.name) for e in instance.events]


@pytest.mark.parametrize("family", INSTANCE_FAMILIES)
def test_local_criterion_names_the_networkx_degree(family):
    """At alphabet 2 the all-zero events sit at or above their local
    bound; the error names the first such event with its graph degree."""
    instance = build_family_instance(family, 12, alphabet=2, degree=3)
    graph = instance.dependency_graph
    violating = next(
        event
        for event in instance.events
        if event.probability() >= 2.0 ** -graph.degree(event.name)
    )
    with pytest.raises(CriterionViolationError) as caught:
        check_local_criterion(instance)
    message = str(caught.value)
    assert f"event {violating.name!r}" in message
    assert f"(deg={graph.degree(violating.name)})" in message

