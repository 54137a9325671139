"""Shared instance-to-index structure used by every solve-path layer.

The paper's objects are index families: each variable's events, and
each event's dependency neighbours (SNIPPETS.md snippet 1's
``Γ : Fin n → Finset (Fin n)``).  :func:`event_incidence` builds both
once per instance with numpy from the instance's
:class:`~repro.artifacts.fingerprint.ScopeLayout`, and it is the one
source of dependency structure on the solve path: property P*
(:class:`~repro.core.pstar.PStarState`), ``d``
(:attr:`~repro.lll.instance.LLLInstance.max_dependency_degree`), the
local criterion, the dependency CSR (:func:`indexed_csr`), the 2-hop
plan and the vector plane's template all read it.  The networkx
``instance.dependency_graph`` stays as an analysis and test view, and
the incidence reproduces its orders exactly: each event's neighbours in
the graph's insertion order, and the edge list in ``edges()`` order.

The LOCAL machinery identifies nodes by integers in sorted-``repr``
event order; :func:`indexed_dependency_network` (the networkx network
the message-level protocol and the verification protocol run on) and
:func:`indexed_csr` (the CSR graph the plan builders color) both use
that indexing.

Every structure here is cached per instance:
:class:`~repro.lll.instance.LLLInstance` is immutable after
construction, so none can go stale.  The caches are per instance only:
the artifact store keeps no index maps, because a warm solve reads its
plan, template and ``d`` from the store and never asks for them.
"""

from __future__ import annotations

import weakref
from itertools import count
from operator import attrgetter
from typing import Dict, Hashable, Tuple

import networkx as nx
import numpy as np

from repro.artifacts.fingerprint import scope_layout
from repro.graph.csr import CSRGraph, sort_unique
from repro.lll.instance import LLLInstance
from repro.local_model.network import Network

#: Per-instance caches; weak keys so indexings die with their instance.
_NETWORK_CACHE: "weakref.WeakKeyDictionary[LLLInstance, Tuple[Network, Dict[Hashable, int], Dict[int, Hashable]]]" = (
    weakref.WeakKeyDictionary()
)
_CSR_CACHE: "weakref.WeakKeyDictionary[LLLInstance, tuple]" = (
    weakref.WeakKeyDictionary()
)
_INCIDENCE_CACHE: "weakref.WeakKeyDictionary[LLLInstance, EventIncidence]" = (
    weakref.WeakKeyDictionary()
)


class EventIncidence:
    """An instance's variable-event incidence and dependency structure.

    Events are indexed ``0 .. E - 1`` in construction order
    (``names[i]`` is event ``i``'s name) and variables ``0 .. V - 1`` in
    :attr:`~repro.lll.instance.LLLInstance.variable_names` order
    (``row_of`` maps a name to its row).  Rows come from names, not
    variable objects, so per-event copies of one variable share a row.
    All arrays are int64 and read-only by convention.

    * ``scope_vars[k]``: the variable row of flat scope position ``k``
      (events' scopes concatenated in event order); ``slot_rows`` is the
      row of each :class:`~repro.artifacts.fingerprint.ScopeLayout` slot.
    * ``var_events[var_ptr[v]:var_ptr[v + 1]]``: variable ``v``'s events
      in event (bookkeeping) order, the instance's
      ``events_of_variable``; ``var_positions`` holds its scope position
      in each.
    * ``nbr_events[nbr_ptr[i]:nbr_ptr[i + 1]]``: event ``i``'s dependency
      neighbours in ``dependency_graph.neighbors`` order, i.e. by first
      co-occurrence: variables in row order, then each variable's event
      pairs ``(j, k)``, ``j < k``, in lexicographic order.
      ``nbr_edges`` gives each of those slots its edge's index in
      ``edge_u``/``edge_v``.
    * ``edge_u``/``edge_v``: the dependency edges in
      ``dependency_graph.edges()`` order; ``edge_u[e] < edge_v[e]``.
    * ``degrees[i]``: event ``i``'s dependency degree.
    """

    __slots__ = (
        "names",
        "row_of",
        "slot_rows",
        "scope_vars",
        "var_ptr",
        "var_events",
        "var_positions",
        "nbr_ptr",
        "nbr_events",
        "nbr_edges",
        "edge_u",
        "edge_v",
        "degrees",
    )

    @property
    def num_events(self) -> int:
        return len(self.names)


def _pointers(counts: np.ndarray) -> np.ndarray:
    """Row offsets ``[0, c0, c0 + c1, ...]`` of per-row counts."""
    pointers = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=pointers[1:])
    return pointers


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for non-negative ints.

    Ties broken by position make every key distinct, so the default
    sort gives the stable order, several times faster than a stable
    sort of int64 keys.
    """
    return np.argsort(
        values * np.int64(len(values)) + np.arange(len(values))
    )


def _incidence(instance: LLLInstance) -> EventIncidence:
    layout = scope_layout(instance)
    incidence = EventIncidence()
    names = incidence.names = list(map(attrgetter("name"), instance.events))
    num_events = len(names)

    # The transpose: a stable sort of the flat scope positions by
    # variable row keeps each variable's events in event order.
    row_of = incidence.row_of = dict(zip(instance.variable_names, count()))
    slot_rows = incidence.slot_rows = np.fromiter(
        map(row_of.__getitem__, layout.slot_names),
        dtype=np.int64,
        count=len(layout.slot_names),
    )
    scope_vars = slot_rows[np.frombuffer(layout.scope_slots, np.int64)]
    offsets = np.frombuffer(layout.offsets, np.int64)
    event_of = np.repeat(
        np.arange(num_events, dtype=np.int64), np.diff(offsets)
    )
    order = _stable_order(scope_vars)
    incidence.scope_vars = scope_vars
    incidence.var_ptr = var_ptr = _pointers(
        np.bincount(scope_vars, minlength=len(row_of))
    )
    incidence.var_events = var_events = event_of[order]
    incidence.var_positions = (
        np.arange(len(scope_vars), dtype=np.int64) - offsets[event_of]
    )[order]

    # Every co-occurring event pair, at its position in the sequence the
    # dependency graph inserts edges in: variables in row order, each
    # variable's pairs in lexicographic order.
    ranks = np.diff(var_ptr)
    pair_ptr = _pointers(ranks * (ranks - 1) // 2)
    first = np.empty(int(pair_ptr[-1]), dtype=np.int64)
    second = np.empty_like(first)
    for rank in sort_unique(ranks[ranks > 1]).tolist():
        members = np.flatnonzero(ranks == rank)
        left, right = np.triu_indices(rank, 1)
        sites = var_ptr[members][:, None]
        at = pair_ptr[members][:, None] + np.arange(len(left))
        first[at] = var_events[sites + left]
        second[at] = var_events[sites + right]

    # Each edge is inserted at its pair's first occurrence.  Events of a
    # variable are in event order, so ``first < second``.
    keys = first * np.int64(num_events) + second
    by_key = np.argsort(keys)
    opens = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[by_key][1:], keys[by_key][:-1], out=opens[1:])
    inserted = np.sort(np.minimum.reduceat(by_key, np.flatnonzero(opens)))
    first = first[inserted]
    second = second[inserted]

    # A node's neighbours are in edge insertion order: interleaving both
    # directions of each edge and sorting stably by node keeps it.
    owners = np.stack((first, second), axis=1).ravel()
    others = np.stack((second, first), axis=1).ravel()
    by_owner = _stable_order(owners)
    owners = owners[by_owner]
    nbr_events = others[by_owner]
    degrees = np.bincount(owners, minlength=num_events)
    incidence.degrees = degrees
    incidence.nbr_ptr = _pointers(degrees)
    incidence.nbr_events = nbr_events

    # ``edges()`` walks the nodes in order and yields each node's
    # neighbours that come later, in neighbour order.
    forward = nbr_events > owners
    incidence.edge_u = owners[forward]
    incidence.edge_v = nbr_events[forward]
    edge_of_inserted = np.empty(len(inserted), dtype=np.int64)
    edge_of_inserted[by_owner[forward] // 2] = np.arange(
        len(incidence.edge_u), dtype=np.int64
    )
    incidence.nbr_edges = edge_of_inserted[by_owner // 2]
    return incidence


def event_incidence(instance: LLLInstance) -> EventIncidence:
    """The instance's :class:`EventIncidence`, built once and cached."""
    incidence = _INCIDENCE_CACHE.get(instance)
    if incidence is None:
        incidence = _INCIDENCE_CACHE[instance] = _incidence(instance)
    return incidence


def _index_maps(
    instance: LLLInstance,
) -> Tuple[Dict[Hashable, int], Dict[int, Hashable]]:
    """Event-name indexing in sorted-repr order (both directions).

    Matches the node order of ``instance.dependency_graph`` — nodes are
    inserted in event order, so sorting the event names directly gives
    the same total order without touching the graph.
    """
    ordered = sorted((event.name for event in instance.events), key=repr)
    to_index = {name: i for i, name in enumerate(ordered)}
    from_index = {i: name for name, i in to_index.items()}
    return to_index, from_index


def indexed_dependency_network(
    instance: LLLInstance,
) -> Tuple[Network, Dict[Hashable, int], Dict[int, Hashable]]:
    """The dependency graph as a network with integer identifiers.

    Event names may be arbitrary hashables; LOCAL identifiers must be
    integers, so events are indexed in sorted-repr order.  Returns the
    relabeled network plus both directions of the mapping
    (``name -> index`` and ``index -> name``).

    The result is cached per instance — treat the returned network and
    mappings as read-only.
    """
    cached = _NETWORK_CACHE.get(instance)
    if cached is not None:
        return cached
    graph = instance.dependency_graph
    to_index, from_index = _index_maps(instance)
    relabeled = nx.relabel_nodes(graph, to_index, copy=True)
    result = (Network(relabeled), to_index, from_index)
    _NETWORK_CACHE[instance] = result
    return result


def indexed_csr(instance: LLLInstance):
    """The dependency graph as a :class:`repro.graph.CSRGraph`.

    Same indexing (sorted-repr event order) and same edge set as
    :func:`indexed_dependency_network`: the :func:`event_incidence`
    edge list, relabeled to sorted-repr indices.  Returns ``(csr,
    to_index, from_index)``, cached per instance; treat all three as
    read-only.
    """
    cached = _CSR_CACHE.get(instance)
    if cached is not None:
        return cached
    incidence = event_incidence(instance)
    to_index, from_index = _index_maps(instance)
    relabel = np.fromiter(
        map(to_index.__getitem__, incidence.names),
        dtype=np.int64,
        count=incidence.num_events,
    )
    csr = CSRGraph.from_edges(
        incidence.num_events,
        relabel[incidence.edge_u],
        relabel[incidence.edge_v],
    )
    result = (csr, to_index, from_index)
    _CSR_CACHE[instance] = result
    return result
