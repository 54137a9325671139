"""Generic LLL instance builders over graph and hypergraph workloads.

The canonical below-threshold family is the *all-zero* instance: one
uniform variable over ``{0, .., k-1}`` per edge (or per triple), and the
bad event at a node is "every incident variable is 0".  A node of degree
``delta`` then has bad-event probability ``k^-delta`` while its dependency
degree is ``delta`` (edge variables) or up to ``2*delta`` (triples), so
the alphabet size ``k`` is a clean knob for the distance to the paper's
threshold ``p = 2^-d``:

* edge variables on a regular graph: ``k = 2`` sits exactly at the
  threshold (this is sinkless orientation in disguise), ``k >= 3`` is
  strictly below it;
* triple variables with ``t`` triples per node: ``k = 4`` is at the
  threshold, ``k >= 5`` strictly below.

Every graph-taking builder accepts either a :class:`networkx.Graph` or a
:class:`repro.graph.CSRGraph` — the builders only use the traversal
surface (``nodes`` / ``edges`` / ``neighbors`` / ``degree``) that both
provide, and the CSR form skips the per-node dict machinery on large
workloads.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.artifacts.fingerprint import declare_scopes
from repro.errors import ReproError
from repro.lll.instance import LLLInstance
from repro.probability import BadEvent, DiscreteVariable

Triple = Tuple[int, int, int]


def edge_variable_name(u: int, v: int) -> Tuple[str, int, int]:
    """Canonical name for the variable on edge ``{u, v}``."""
    return ("edge", min(u, v), max(u, v))


def triple_variable_name(triple: Sequence[int]) -> Tuple[str, int, int, int]:
    """Canonical name for the variable on a node triple."""
    a, b, c = sorted(triple)
    return ("tri", a, b, c)


#: Families understood by :func:`build_family_instance` — the CLI's
#: ``--family`` choices and the solve service's ``"family"`` field.
INSTANCE_FAMILIES = ("cycle", "regular", "torus", "triples")


def build_family_instance(
    family: str,
    n: int,
    alphabet: int = 3,
    degree: int = 4,
    seed: int = 0,
) -> LLLInstance:
    """Build a named below-threshold workload family.

    The single instance-spec grammar shared by the ``repro`` CLI
    (``--family``/``--n``/``--alphabet``/...) and the solve service's
    JSON request bodies, so a served request names exactly the workload
    an operator can reproduce from the command line.
    """
    from repro.generators.graphs import (
        cycle_graph,
        random_regular_graph,
        torus_graph,
    )
    from repro.generators.hypergraphs import cyclic_triples

    if n < 1:
        raise ReproError(f"n must be positive, got {n}")
    if family == "cycle":
        return all_zero_edge_instance(cycle_graph(n), alphabet)
    if family == "regular":
        return all_zero_edge_instance(
            random_regular_graph(n, degree, seed=seed), alphabet
        )
    if family == "torus":
        side = max(int(round(n ** 0.5)), 3)
        return all_zero_edge_instance(torus_graph(side, side), alphabet)
    if family == "triples":
        return all_zero_triple_instance(n, cyclic_triples(n), alphabet)
    raise ReproError(
        f"unknown family {family!r}; expected one of {INSTANCE_FAMILIES}"
    )


def _shared_probabilities(
    alphabet_size: int, probabilities: Optional[Sequence[float]]
) -> Tuple[float, ...]:
    """One probability tuple for every variable of a generated instance.

    Every variable keeps this very tuple, which is what lets
    :func:`_declared_instance` declare one support.
    """
    if probabilities is None:
        return (1.0 / alphabet_size,) * alphabet_size
    return tuple(map(float, probabilities))


def _declared_instance(
    events: List[BadEvent], scope_ids: array, shape_ids: array
) -> LLLInstance:
    """The instance of ``events``, with the generator's columns declared.

    ``scope_ids`` numbers the variable at every scope position by the
    generator's own edge or triple index, and ``shape_ids`` numbers
    each event's shape by its scope length: every variable has the
    one shared support and every event is "all incident equal 0".
    The fingerprint then reads these arrays instead of walking the
    objects (:func:`repro.artifacts.fingerprint.declare_scopes`).
    """
    instance = LLLInstance(events)
    declare_scopes(instance, scope_ids, shape_ids)
    return instance


def _require_no_isolated_nodes(graph: nx.Graph) -> None:
    isolated = [node for node, degree in graph.degree() if degree == 0]
    if isolated:
        raise ReproError(
            f"graph has isolated nodes {isolated[:5]}; their events would "
            f"have empty scopes"
        )


def all_zero_edge_instance(
    graph: nx.Graph,
    alphabet_size: int,
    probabilities: Optional[Sequence[float]] = None,
) -> LLLInstance:
    """Rank-2 instance: one variable per edge, bad event = 'all incident are 0'.

    Parameters
    ----------
    graph:
        The communication graph; its nodes host the bad events and its
        edges the variables.  The dependency graph of the produced
        instance equals ``graph``.
    alphabet_size:
        Support size ``k`` of each variable; ``Pr[bad at v] = k^-deg(v)``
        for uniform variables.
    probabilities:
        Optional non-uniform distribution over ``0..k-1`` (shared by all
        variables); entry 0 is the "bad" value's probability.
    """
    if alphabet_size < 2:
        raise ReproError("alphabet_size must be at least 2")
    _require_no_isolated_nodes(graph)
    values = tuple(range(alphabet_size))
    probabilities = _shared_probabilities(alphabet_size, probabilities)
    variables: List[DiscreteVariable] = []
    index: Dict[Hashable, int] = {}
    for u, v in graph.edges():
        name = edge_variable_name(u, v)
        index[name] = len(variables)
        variables.append(DiscreteVariable(name, values, probabilities))
    scope_ids, shape_ids, shapes = array("q"), array("q"), {}
    events = []
    for node in graph.nodes():
        ids = [
            index[edge_variable_name(node, neighbor)]
            for neighbor in sorted(graph.neighbors(node))
        ]
        scope_ids.extend(ids)
        shape_ids.append(shapes.setdefault(len(ids), len(shapes)))
        # Tabulated ("all incident equal 0") rather than an opaque
        # closure: the bad-outcomes hint makes the event — and hence the
        # whole instance — structurally fingerprintable, so kernels,
        # plans and templates are shared across same-shape instances.
        events.append(
            BadEvent.all_equal(node, list(map(variables.__getitem__, ids)), 0)
        )
    return _declared_instance(events, scope_ids, shape_ids)


def threshold_count_edge_instance(
    graph: nx.Graph,
    alphabet_size: int,
    min_zeros: int,
    probabilities: Optional[Sequence[float]] = None,
) -> LLLInstance:
    """Rank-2 instance where a node is bad iff >= ``min_zeros`` incident are 0.

    Softer events than :func:`all_zero_edge_instance`; with
    ``min_zeros = deg`` it coincides with the all-zero family.  Useful for
    probing instances at varying distances from the threshold: unlike the
    all-zero events, a single fixing cannot kill a ``min_zeros < deg``
    event outright, so the bookkeeping stays under genuine pressure.
    """
    if alphabet_size < 2:
        raise ReproError("alphabet_size must be at least 2")
    if min_zeros < 1:
        raise ReproError("min_zeros must be at least 1")
    _require_no_isolated_nodes(graph)
    values = tuple(range(alphabet_size))
    variables = {}
    for u, v in graph.edges():
        name = edge_variable_name(u, v)
        variables[name] = DiscreteVariable(name, values, probabilities)
    events = []
    for node in graph.nodes():
        scope = [
            variables[edge_variable_name(node, neighbor)]
            for neighbor in sorted(graph.neighbors(node))
        ]
        names = tuple(variable.name for variable in scope)

        def predicate(assignment: Mapping, _names=names, _k=min_zeros) -> bool:
            zeros = sum(1 for name in _names if assignment[name] == 0)
            return zeros >= _k

        events.append(BadEvent(node, scope, predicate))
    return LLLInstance(events)


def parity_edge_instance(graph: nx.Graph, bias: float) -> LLLInstance:
    """Rank-2 instance with *unkillable* events: bad iff incident XOR is 1.

    Each edge carries a Bernoulli(``bias``) bit; the bad event at a node
    is "the XOR of my incident bits equals 1".  Unlike the all-zero
    family, no single fixing can make a parity event impossible — its
    conditional probability stays strictly positive until the last
    incident bit is fixed — so the bookkeeping remains under pressure
    for the entire run.  On a cycle (d = 2): ``p = 2*bias*(1-bias)``,
    which approaches the threshold ``1/4`` as ``bias -> 1/2``.
    """
    if not (0.0 < bias < 1.0):
        raise ReproError("bias must be strictly between 0 and 1")
    _require_no_isolated_nodes(graph)
    variables = {}
    for u, v in graph.edges():
        name = edge_variable_name(u, v)
        variables[name] = DiscreteVariable(name, (0, 1), (1.0 - bias, bias))
    events = []
    for node in graph.nodes():
        scope = [
            variables[edge_variable_name(node, neighbor)]
            for neighbor in sorted(graph.neighbors(node))
        ]
        names = tuple(variable.name for variable in scope)

        def predicate(assignment: Mapping, _names=names) -> bool:
            parity = 0
            for name in _names:
                parity ^= assignment[name]
            return parity == 1

        events.append(BadEvent(node, scope, predicate))
    return LLLInstance(events)


def all_zero_triple_instance(
    num_nodes: int,
    triples: Sequence[Triple],
    alphabet_size: int,
    probabilities: Optional[Sequence[float]] = None,
) -> LLLInstance:
    """Rank-3 instance: one variable per triple, bad = 'all incident are 0'.

    A node contained in ``t`` triples has bad-event probability
    ``k^-t`` (uniform case) and dependency degree at most ``2t``.
    """
    if alphabet_size < 2:
        raise ReproError("alphabet_size must be at least 2")
    values = tuple(range(alphabet_size))
    probabilities = _shared_probabilities(alphabet_size, probabilities)
    variables: List[DiscreteVariable] = []
    names = set()
    incident: List[List[int]] = [[] for _ in range(num_nodes)]
    for triple in triples:
        if len(set(triple)) != 3:
            raise ReproError(f"triple {triple!r} has repeated nodes")
        name = triple_variable_name(triple)
        if name in names:
            raise ReproError(f"duplicate triple {triple!r}")
        names.add(name)
        number = len(variables)
        variables.append(DiscreteVariable(name, values, probabilities))
        for node in triple:
            if node < 0 or node >= num_nodes:
                raise ReproError(f"triple node {node} out of range")
            incident[node].append(number)
    scope_ids, shape_ids, shapes = array("q"), array("q"), {}
    events = []
    for node in range(num_nodes):
        ids = incident[node]
        if not ids:
            raise ReproError(
                f"node {node} is in no triple; its event would have an "
                f"empty scope"
            )
        scope_ids.extend(ids)
        shape_ids.append(shapes.setdefault(len(ids), len(shapes)))
        events.append(
            BadEvent.all_equal(node, list(map(variables.__getitem__, ids)), 0)
        )
    return _declared_instance(events, scope_ids, shape_ids)


def mixed_rank_instance(
    graph: nx.Graph,
    triples: Sequence[Triple],
    edge_alphabet: int,
    triple_alphabet: int,
) -> LLLInstance:
    """An instance mixing rank-2 (edge) and rank-3 (triple) variables.

    The bad event at node ``v`` occurs iff *all* its incident edge
    variables and all its incident triple variables are 0.  Exercises the
    fixer's rank dispatch on a single instance.
    """
    _require_no_isolated_nodes(graph)
    edge_values = tuple(range(edge_alphabet))
    triple_values = tuple(range(triple_alphabet))
    variables = {}
    for u, v in graph.edges():
        name = edge_variable_name(u, v)
        variables[name] = DiscreteVariable(name, edge_values)
    incident_triples: List[List[DiscreteVariable]] = [
        [] for _ in range(graph.number_of_nodes())
    ]
    for triple in triples:
        name = triple_variable_name(triple)
        variable = DiscreteVariable(name, triple_values)
        variables[name] = variable
        for node in triple:
            incident_triples[node].append(variable)
    events = []
    for node in graph.nodes():
        scope = [
            variables[edge_variable_name(node, neighbor)]
            for neighbor in sorted(graph.neighbors(node))
        ]
        scope.extend(incident_triples[node])
        events.append(BadEvent.all_equal(node, scope, 0))
    return LLLInstance(events)
