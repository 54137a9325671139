"""Compressed-sparse-row graphs: the array-native adjacency substrate.

A :class:`CSRGraph` stores an undirected simple graph as two NumPy index
arrays — ``indptr`` (row offsets, length ``n + 1``) and ``indices``
(concatenated neighbor lists, sorted within each row) — replacing the
networkx/dict traversals on every hot path of the coloring substrate and
the plan builders.  Node identifiers are exactly ``0 .. n - 1``, matching
the contract of :func:`repro.core.indexing.indexed_dependency_network`,
so a node's identifier doubles as its array position and a whole round of
neighborhood reads is one fancy-indexing slice.

The module also provides the two virtual-graph constructions the
distributed fixers color — the line graph (for edge colorings) and the
square ``G^2`` (for 2-hop colorings) — as vectorized CSR-to-CSR
transforms that agree node-for-node with their networkx counterparts in
:mod:`repro.local_model.network`.

For interoperability, :class:`CSRGraph` exposes the small slice of the
``networkx.Graph`` API the instance generators traverse (``nodes``,
``edges``, ``neighbors``, ``degree``, ...), always yielding *Python*
ints — never NumPy scalars, whose ``repr`` differs and would silently
poison the repr-sorted orderings the rest of the library relies on.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import GraphSubstrateError

#: Safety cap on intermediate pair expansions (entries, not bytes); the
#: two-hop construction processes its Σ deg² expansion in chunks of at
#: most this many directed pairs.
_EXPANSION_CHUNK = 1 << 24


def require_index_dtype(name: str, array: np.ndarray) -> np.ndarray:
    """Assert that ``array`` is an integer NumPy array (no object dtype).

    Object-dtype arrays arise when heterogeneous or arbitrary-precision
    values sneak into a construction; every vectorized kernel would then
    silently fall back to per-element Python dispatch.  The substrate
    fails loudly instead.
    """
    array = np.asarray(array)
    if array.dtype == object or not np.issubdtype(array.dtype, np.integer):
        raise GraphSubstrateError(
            f"{name} must be an integer array, got dtype {array.dtype!r} "
            f"(object/float dtypes disable every vectorized fast path)"
        )
    return array


def sort_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array: ``np.unique(keys)``.

    One sort and one neighbour mask.  ``np.unique`` may take a hash
    table instead (numpy 2.x does for integer input), which is slower
    on the key arrays the substrate dedupes; this result does not
    depend on the numpy version.
    """
    keys = np.sort(keys, axis=None)
    if len(keys) < 2:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def concatenated_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``.

    The standard vectorized multi-range trick; the building block for
    gathering the neighborhoods of many nodes at once.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)


class CSRGraph:
    """An undirected simple graph over nodes ``0 .. n - 1`` in CSR form.

    ``indices[indptr[u] : indptr[u + 1]]`` are the neighbors of ``u`` in
    ascending order — the same port order :class:`repro.local_model.network.Network`
    derives by sorting, so colorings computed on either representation
    see identical neighborhoods.
    """

    __slots__ = ("indptr", "indices", "num_nodes", "_row_index")

    def __init__(self, num_nodes: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        if num_nodes < 1:
            raise GraphSubstrateError("a CSR graph needs at least one node")
        indptr = require_index_dtype("indptr", indptr)
        indices = require_index_dtype("indices", indices)
        if indptr.shape != (num_nodes + 1,):
            raise GraphSubstrateError(
                f"indptr must have length num_nodes + 1 = {num_nodes + 1}, "
                f"got {indptr.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphSubstrateError("indptr endpoints do not frame indices")
        self.num_nodes = int(num_nodes)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._row_index: np.ndarray = None  # lazily materialized

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_nodes: int, u: np.ndarray, v: np.ndarray
    ) -> "CSRGraph":
        """Build from (possibly duplicated) undirected edge endpoint arrays.

        Endpoints are validated against ``[0, num_nodes)``; self-loops
        are rejected (as in :class:`~repro.local_model.network.Network`);
        duplicate edges collapse.
        """
        u = require_index_dtype("edge endpoints u", u).astype(np.int64, copy=False)
        v = require_index_dtype("edge endpoints v", v).astype(np.int64, copy=False)
        if u.shape != v.shape:
            raise GraphSubstrateError("endpoint arrays must have equal length")
        if len(u) and (
            u.min() < 0 or v.min() < 0
            or u.max() >= num_nodes or v.max() >= num_nodes
        ):
            raise GraphSubstrateError(
                f"edge endpoints outside [0, {num_nodes})"
            )
        if np.any(u == v):
            raise GraphSubstrateError("self-loops are not allowed")
        # Symmetrize, then dedupe directed pairs via their flat keys.
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        keys = sort_unique(src * np.int64(num_nodes) + dst)
        src = keys // num_nodes
        dst = keys % num_nodes
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(num_nodes, indptr, dst)

    @classmethod
    def from_networkx(cls, graph) -> "CSRGraph":
        """Build from a networkx graph whose nodes are exactly ``0..n-1``."""
        n = graph.number_of_nodes()
        if n == 0:
            raise GraphSubstrateError("a CSR graph needs at least one node")
        if not all(
            isinstance(node, int) and 0 <= node < n for node in graph.nodes()
        ):
            raise GraphSubstrateError(
                "CSR conversion requires contiguous integer nodes 0..n-1"
            )
        edges = np.array(
            [(u, v) for u, v in graph.edges() if u != v], dtype=np.int64
        ).reshape(-1, 2)
        return cls.from_edges(n, edges[:, 0], edges[:, 1])

    @classmethod
    def from_network(cls, network) -> "CSRGraph":
        """Build from a :class:`repro.local_model.network.Network`."""
        return cls.from_networkx(network.graph)

    def to_networkx(self):
        """The equivalent :class:`networkx.Graph` (for cross-checks)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        eu, ev = self.edge_endpoints()
        graph.add_edges_from(zip(eu.tolist(), ev.tolist()))
        return graph

    # ------------------------------------------------------------------
    # Array accessors (the hot paths)
    # ------------------------------------------------------------------
    @property
    def num_directed(self) -> int:
        """Number of directed adjacency entries (``2 * num_edges``)."""
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degrees as an int64 array."""
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        """The maximum degree (0 for edgeless graphs)."""
        if len(self.indices) == 0:
            return 0
        return int(self.degrees.max())

    @property
    def row_index(self) -> np.ndarray:
        """Source node of every directed adjacency entry (cached)."""
        if self._row_index is None:
            self._row_index = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), self.degrees
            )
        return self._row_index

    def neighbor_slice(self, node: int) -> np.ndarray:
        """The neighbors of ``node`` as an array view (ascending)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def edge_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Undirected edge endpoint arrays ``(u, v)`` with ``u < v``.

        Edges are emitted in lexicographic order — the exact sorted-edge
        order :func:`repro.local_model.network.line_graph_network` uses
        to number virtual nodes.
        """
        mask = self.row_index < self.indices
        return self.row_index[mask], self.indices[mask]

    def gather_neighborhoods(
        self, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All adjacency entries of ``nodes`` at once.

        Returns ``(owner, entry)``: ``owner[i]`` is the *position* into
        ``nodes`` whose neighborhood produced ``entry[i]`` (a position
        into :attr:`indices`).  One fancy-indexed slice replacing a
        Python loop over per-node neighbor tuples.
        """
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        entry = concatenated_ranges(starts, counts)
        owner = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
        return owner, entry

    # ------------------------------------------------------------------
    # networkx-compatible traversal (Python ints only)
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        return self.num_nodes

    def number_of_edges(self) -> int:
        return self.num_edges

    def nodes(self) -> range:
        return range(self.num_nodes)

    def edges(self) -> Iterator[Tuple[int, int]]:
        eu, ev = self.edge_endpoints()
        return zip(eu.tolist(), ev.tolist())

    def neighbors(self, node: int) -> List[int]:
        if not 0 <= node < self.num_nodes:
            raise GraphSubstrateError(f"no node {node!r} in graph")
        return self.neighbor_slice(node).tolist()

    def degree(self) -> Iterator[Tuple[int, int]]:
        return zip(range(self.num_nodes), self.degrees.tolist())

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbor_slice(u)
        position = np.searchsorted(row, v)
        return bool(position < len(row) and row[position] == v)

    def __repr__(self) -> str:
        return (
            f"CSRGraph({self.num_nodes} nodes, {self.num_edges} edges, "
            f"max_degree={self.max_degree})"
        )


# ----------------------------------------------------------------------
# Virtual graphs
# ----------------------------------------------------------------------
def line_graph_csr(csr: CSRGraph) -> Tuple[CSRGraph, np.ndarray, np.ndarray]:
    """The line graph in CSR form, plus the edge endpoint arrays.

    Virtual node ``i`` is the ``i``-th undirected edge in lexicographic
    order — identical numbering to
    :func:`repro.local_model.network.line_graph_network` — and virtual
    nodes are adjacent iff their edges share an endpoint.  Returns
    ``(line, edge_u, edge_v)`` so callers can map virtual colors back to
    ``(u, v)`` edge keys without a dict round-trip.
    """
    edge_u, edge_v = csr.edge_endpoints()
    num_edges = len(edge_u)
    if num_edges == 0:
        raise GraphSubstrateError("line graph of an edgeless graph is empty")
    n = csr.num_nodes
    # Map every directed adjacency entry to its undirected edge id via
    # binary search over the (sorted) lexicographic edge keys.
    edge_keys = edge_u * np.int64(n) + edge_v
    lo = np.minimum(csr.row_index, csr.indices)
    hi = np.maximum(csr.row_index, csr.indices)
    eid = np.searchsorted(edge_keys, lo * np.int64(n) + hi)
    # Incident edge ids of node v sit at eid[indptr[v] : indptr[v + 1]].
    # All unordered incident pairs, generated per padded column pair —
    # max_degree iterations of O(n) array work instead of an O(sum d^2)
    # Python loop.
    dmax = csr.max_degree
    padded = np.full((n, dmax), -1, dtype=np.int64)
    col = np.arange(len(csr.indices), dtype=np.int64) - np.repeat(
        csr.indptr[:-1], csr.degrees
    )
    padded[csr.row_index, col] = eid
    first: List[np.ndarray] = []
    second: List[np.ndarray] = []
    for i in range(dmax):
        for j in range(i + 1, dmax):
            valid = padded[:, j] >= 0
            if not valid.any():
                continue
            first.append(padded[valid, i])
            second.append(padded[valid, j])
    if first:
        pair_a = np.concatenate(first)
        pair_b = np.concatenate(second)
    else:
        pair_a = np.empty(0, dtype=np.int64)
        pair_b = np.empty(0, dtype=np.int64)
    return CSRGraph.from_edges(num_edges, pair_a, pair_b), edge_u, edge_v


def square_csr(csr: CSRGraph) -> CSRGraph:
    """The square ``G^2`` in CSR form: adjacent iff within distance two.

    Agrees node-for-node with
    :func:`repro.local_model.network.square_graph_network`.  The
    Σ deg² two-hop expansion is processed in bounded chunks, so peak
    memory stays proportional to the chunk size rather than the full
    expansion.
    """
    n = csr.num_nodes
    row = csr.row_index
    degrees = csr.degrees
    keys: List[np.ndarray] = []
    direct = row * np.int64(n) + csr.indices
    keys.append(direct)
    # Two-hop pairs: for each directed entry (u -> v), all (u, w) with w
    # a neighbor of v.  Chunk over directed entries.
    counts = degrees[csr.indices]
    if len(counts):
        boundaries = np.cumsum(counts)
        total = int(boundaries[-1])
        start_entry = 0
        spent = 0
        while start_entry < len(row):
            # Grow the chunk until its expansion would exceed the cap.
            end_entry = int(
                np.searchsorted(boundaries, spent + _EXPANSION_CHUNK, side="right")
            )
            end_entry = max(end_entry, start_entry + 1)
            chunk = slice(start_entry, end_entry)
            src = np.repeat(row[chunk], counts[chunk])
            targets = csr.indices[chunk]
            entry = concatenated_ranges(
                csr.indptr[targets], counts[chunk]
            )
            dst = csr.indices[entry]
            keep = src != dst
            keys.append(sort_unique(src[keep] * np.int64(n) + dst[keep]))
            spent = int(boundaries[end_entry - 1])
            start_entry = end_entry
        del boundaries
    all_keys = sort_unique(np.concatenate(keys))
    src = all_keys // n
    dst = all_keys % n
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(n, indptr, dst)
