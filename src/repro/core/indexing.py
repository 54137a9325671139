"""Shared instance-to-network indexing used by every distributed layer.

The LOCAL machinery identifies nodes by integers, while LLL instances
name events with arbitrary hashables.  Every distributed entry point —
the scheduled solvers of :mod:`repro.core.distributed`, the
message-level protocol of :mod:`repro.core.local_protocol`, the
verification protocol of :mod:`repro.core.local_verify`, and the plan
builders of :mod:`repro.runtime` — needs the same translation, so it
lives here as a public, importable module instead of a private helper
buried in one of its consumers.

Both indexings are cached per instance: :class:`~repro.lll.instance.LLLInstance`
is immutable after construction, so the sorted order, the relabeled
network, and the CSR arrays can never go stale.  Re-deriving them used
to cost a full sort + graph rebuild on *every* call — and the solvers
call this once per entry point.  The caches are per instance only: the
artifact store keeps no index maps, because a warm solve reads its plan
from the ``plans`` tier and never asks for them.
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, Tuple

import networkx as nx
import numpy as np

from repro.lll.instance import LLLInstance
from repro.local_model.network import Network

#: Per-instance caches; weak keys so indexings die with their instance.
_NETWORK_CACHE: "weakref.WeakKeyDictionary[LLLInstance, Tuple[Network, Dict[Hashable, int], Dict[int, Hashable]]]" = (
    weakref.WeakKeyDictionary()
)
_CSR_CACHE: "weakref.WeakKeyDictionary[LLLInstance, tuple]" = (
    weakref.WeakKeyDictionary()
)


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
    :func:`indexed_dependency_network`, built directly from the
    instance's variable incidences — no networkx graph, no relabeling
    pass.  Returns ``(csr, to_index, from_index)``, cached per instance;
    treat all three as read-only.
    """
    cached = _CSR_CACHE.get(instance)
    if cached is not None:
        return cached
    from repro.graph import CSRGraph

    to_index, from_index = _index_maps(instance)
    endpoints_u = []
    endpoints_v = []
    for variable in instance.variables:
        events = instance.events_of_variable(variable.name)
        indices = [to_index[event.name] for event in events]
        for i, first in enumerate(indices):
            for second in indices[i + 1 :]:
                if first != second:
                    endpoints_u.append(first)
                    endpoints_v.append(second)
    csr = CSRGraph.from_edges(
        instance.num_events,
        np.array(endpoints_u, dtype=np.int64),
        np.array(endpoints_v, dtype=np.int64),
    )
    result = (csr, to_index, from_index)
    _CSR_CACHE[instance] = result
    return result
