"""Seeded graph workload generators.

All generators return :class:`networkx.Graph` objects with integer nodes
and accept explicit seeds, so every experiment in the benchmark harness is
reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Optional

import networkx as nx

from repro.errors import ReproError


def cycle_graph(num_nodes: int) -> nx.Graph:
    """A cycle on ``num_nodes`` nodes (degree 2)."""
    if num_nodes < 3:
        raise ReproError("a cycle needs at least 3 nodes")
    return nx.cycle_graph(num_nodes)


def path_graph(num_nodes: int) -> nx.Graph:
    """A path on ``num_nodes`` nodes."""
    if num_nodes < 2:
        raise ReproError("a path needs at least 2 nodes")
    return nx.path_graph(num_nodes)


def grid_graph(rows: int, cols: int, periodic: bool = False) -> nx.Graph:
    """A 2-D grid (or torus if ``periodic``) with integer-relabelled nodes."""
    if rows < 2 or cols < 2:
        raise ReproError("a grid needs at least 2x2 nodes")
    graph = nx.grid_2d_graph(rows, cols, periodic=periodic)
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def torus_graph(rows: int, cols: int) -> nx.Graph:
    """A 2-D torus (4-regular for ``rows, cols >= 3``)."""
    if rows < 3 or cols < 3:
        raise ReproError("a torus needs at least 3x3 nodes")
    return grid_graph(rows, cols, periodic=True)


def random_regular_graph(num_nodes: int, degree: int, seed: int) -> nx.Graph:
    """A uniformly random ``degree``-regular simple graph."""
    if not 0 <= degree < num_nodes:
        raise ReproError(
            "degree must be non-negative and smaller than the number of nodes"
        )
    if (num_nodes * degree) % 2 != 0:
        raise ReproError("num_nodes * degree must be even")
    return nx.random_regular_graph(degree, num_nodes, seed=seed)


def random_tree(num_nodes: int, seed: int) -> nx.Graph:
    """A uniformly random labelled tree."""
    if num_nodes < 2:
        raise ReproError("a tree needs at least 2 nodes")
    rng = random.Random(seed)
    if num_nodes == 2:
        return nx.path_graph(2)
    sequence = [rng.randrange(num_nodes) for _ in range(num_nodes - 2)]
    return nx.from_prufer_sequence(sequence)


def balanced_tree(branching: int, height: int) -> nx.Graph:
    """A complete ``branching``-ary tree of the given height."""
    if branching < 2 or height < 1:
        raise ReproError("need branching >= 2 and height >= 1")
    return nx.balanced_tree(branching, height)


def hypercube_graph(dimension: int) -> nx.Graph:
    """The ``dimension``-dimensional hypercube (regular of that degree)."""
    if dimension < 1:
        raise ReproError("dimension must be at least 1")
    graph = nx.hypercube_graph(dimension)
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def complete_graph(num_nodes: int) -> nx.Graph:
    """The complete graph on ``num_nodes`` nodes."""
    if num_nodes < 2:
        raise ReproError("a complete graph needs at least 2 nodes")
    return nx.complete_graph(num_nodes)


def random_bipartite_regular(
    left: int, right: int, left_degree: int, seed: int
) -> nx.Graph:
    """A random bipartite graph, ``left_degree``-regular on the left side.

    Left nodes are ``0 .. left-1``; right nodes are ``left .. left+right-1``.
    Built by a configuration-model style matching of stubs with retries to
    avoid parallel edges, so right degrees are near-balanced but not exact.
    """
    if left_degree > right:
        raise ReproError("left_degree cannot exceed the number of right nodes")
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(left + right))
    right_nodes = list(range(left, left + right))
    for u in range(left):
        targets = rng.sample(right_nodes, left_degree)
        for v in targets:
            graph.add_edge(u, v)
    return graph


def cycle_csr(num_nodes: int):
    """A cycle as a :class:`repro.graph.CSRGraph`, built without networkx.

    Node-for-node identical to :func:`cycle_graph`; the index arrays are
    assembled directly, so generating a million-node workload costs two
    ``arange`` calls instead of a million dict insertions.
    """
    import numpy as np

    from repro.graph import CSRGraph

    if num_nodes < 3:
        raise ReproError("a cycle needs at least 3 nodes")
    u = np.arange(num_nodes, dtype=np.int64)
    v = (u + 1) % num_nodes
    return CSRGraph.from_edges(num_nodes, u, v)


def torus_csr(rows: int, cols: int):
    """A 2-D torus as a :class:`repro.graph.CSRGraph`, built without networkx.

    Node-for-node identical to :func:`torus_graph` (node ``(r, c)`` maps
    to index ``r * cols + c``, the sorted-label order networkx uses).
    """
    import numpy as np

    from repro.graph import CSRGraph

    if rows < 3 or cols < 3:
        raise ReproError("a torus needs at least 3x3 nodes")
    index = np.arange(rows * cols, dtype=np.int64)
    r, c = np.divmod(index, cols)
    right = r * cols + (c + 1) % cols
    down = ((r + 1) % rows) * cols + c
    u = np.concatenate([index, index])
    v = np.concatenate([right, down])
    return CSRGraph.from_edges(rows * cols, u, v)


def random_regular_csr(num_nodes: int, degree: int, seed: int):
    """A seeded random regular graph as a :class:`repro.graph.CSRGraph`.

    Same graph as :func:`random_regular_graph` (networkx does the
    generation; only the representation differs).
    """
    from repro.graph import CSRGraph

    return CSRGraph.from_networkx(random_regular_graph(num_nodes, degree, seed))


def degree_profile(graph: nx.Graph) -> dict:
    """Summary of a graph's degree distribution (min/max/mean)."""
    degrees = [deg for _, deg in graph.degree()]
    if not degrees:
        return {"min": 0, "max": 0, "mean": 0.0}
    return {
        "min": min(degrees),
        "max": max(degrees),
        "mean": sum(degrees) / len(degrees),
    }
