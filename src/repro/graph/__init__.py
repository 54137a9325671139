"""Array-native graph substrate: CSR adjacency + vectorized LOCAL rounds.

This package replaces networkx/dict traversals on the hot paths of the
coloring substrate, the LOCAL simulator, and the plan builders with
NumPy index arrays:

* :mod:`repro.graph.csr` — the :class:`CSRGraph` representation and the
  vectorized line-graph / square-graph constructions;
* :mod:`repro.graph.batched` — the batched round loop
  (:class:`BatchedSimulator`) delivering a whole round's messages as one
  CSR gather;
* :mod:`repro.graph.coloring` — whole-palette array implementations of
  Linial, greedy / Kuhn-Wattenhofer reduction, and Cole-Vishkin.

The ``graph`` plane of :mod:`repro.planes` (``REPRO_GRAPH``) selects
these fast paths (``vectorized``, the default) or the per-node
``reference`` oracle.

Every fast path is element-identical to its per-node twin; the
Hypothesis differential suite in ``tests/test_graph_substrate.py``
enforces the equivalence.
"""

from typing import Optional

from repro.graph.batched import ArrayAlgorithm, BatchedSimulator
from repro.graph.coloring import (
    ColeVishkinArrayAlgorithm,
    GreedyReductionArrayAlgorithm,
    KWReductionArrayAlgorithm,
    LinialArrayAlgorithm,
    cole_vishkin_arrays,
    edge_coloring_arrays,
    edge_coloring_with_arrays,
    two_hop_coloring_arrays,
    two_hop_coloring_with_arrays,
    validate_proper_vertex_arrays,
    vertex_coloring_arrays,
)
from repro.graph.csr import (
    CSRGraph,
    line_graph_csr,
    require_index_dtype,
    square_csr,
)
from repro.planes import planes

__all__ = [
    "ArrayAlgorithm",
    "BatchedSimulator",
    "CSRGraph",
    "ColeVishkinArrayAlgorithm",
    "GreedyReductionArrayAlgorithm",
    "KWReductionArrayAlgorithm",
    "LinialArrayAlgorithm",
    "cole_vishkin_arrays",
    "edge_coloring_arrays",
    "edge_coloring_with_arrays",
    "fast_path_csr",
    "line_graph_csr",
    "require_index_dtype",
    "square_csr",
    "two_hop_coloring_arrays",
    "two_hop_coloring_with_arrays",
    "validate_proper_vertex_arrays",
    "vertex_coloring_arrays",
]


def fast_path_csr(network) -> Optional[CSRGraph]:
    """The CSR a coloring entry point runs on, or ``None`` for its
    per-node reference path.

    A :class:`CSRGraph` input always takes the array path.  A
    :class:`~repro.local_model.network.Network` takes it when the graph
    plane is ``vectorized`` and its identifiers are exactly the integers
    ``0 .. n - 1`` (CSR positions double as identifiers).
    """
    if isinstance(network, CSRGraph):
        return network
    if planes().graph == "reference":
        return None
    n = network.num_nodes
    if all(isinstance(node, int) and 0 <= node < n for node in network.nodes):
        return CSRGraph.from_network(network)
    return None
