"""Edge colorings and 2-hop colorings via virtual graphs.

The distributed fixers schedule variable fixings by color class:

* Corollary 1.2 needs a proper *edge* coloring of the dependency graph —
  computed by vertex-coloring the line graph (degree ``<= 2d - 2``) down
  to ``2d - 1`` colors;
* Corollary 1.4 needs a *2-hop* coloring — a proper vertex coloring of
  ``G^2`` (degree ``<= d^2``) with ``d^2 + 1`` colors.

Both run the real coloring pipeline on the virtual network; since one
virtual round is implementable in two rounds on the host graph (the
virtual node's state sits at an endpoint / at the node itself, and virtual
neighbors are within distance two), the reported host rounds are
``2 * virtual rounds``.  This simulation factor is the substitution for
the paper's cited black boxes [PR01] and [FHK16] — see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.coloring.validate import require_proper_vertex_coloring
from repro.coloring.vertex import ColoringResult, compute_vertex_coloring
from repro.errors import SimulationError
from repro.local_model.network import (
    Network,
    line_graph_network,
    square_graph_network,
)
from repro.obs.recorder import active as _obs_active, span as _obs_span

#: Host rounds needed to emulate one round on the line graph or on G^2.
VIRTUAL_ROUND_FACTOR = 2

EdgeKey = Tuple


@dataclass
class EdgeColoringResult:
    """A proper edge coloring with host-graph round accounting."""

    #: ``(min(u,v), max(u,v))`` -> color.
    colors: Dict[EdgeKey, int]
    #: Size of the palette.
    palette: int
    #: Rounds on the host graph (virtual rounds times the factor).
    host_rounds: int
    #: Rounds on the virtual (line) graph.
    virtual_rounds: int


@dataclass
class TwoHopColoringResult:
    """A 2-hop vertex coloring with host-graph round accounting."""

    #: Node -> color; nodes within distance two have distinct colors.
    colors: Dict[Hashable, int]
    #: Size of the palette (``<= d^2 + 1``).
    palette: int
    #: Rounds on the host graph.
    host_rounds: int
    #: Rounds on the virtual (square) graph.
    virtual_rounds: int


def _color_virtual(phase: str, virtual, target: Optional[int]) -> ColoringResult:
    """Vertex-color a virtual graph, recheck it and report the phase.

    ``virtual`` is a :class:`Network` or a
    :class:`repro.graph.CSRGraph`; a CSR graph has no
    ``identifier_space()``, so its positions are the identifiers.
    Properness is rechecked on the virtual graph itself — adjacency
    there is exactly "shares an endpoint" (line graph) or "within
    distance two" (square) — before the coloring becomes a schedule.
    """
    from repro.graph import validate_proper_vertex_arrays

    on_network = isinstance(virtual, Network)
    if target is None:
        target = max(virtual.max_degree + 1, 1)
    with _obs_span("coloring", phase):
        result = compute_vertex_coloring(
            virtual,
            target=target,
            identifier_space=None if on_network else virtual.num_nodes,
        )
    if on_network:
        require_proper_vertex_coloring(virtual.graph, result.colors)
    else:
        validate_proper_vertex_arrays(
            virtual,
            np.fromiter(
                map(result.colors.__getitem__, range(virtual.num_nodes)),
                dtype=np.int64,
                count=virtual.num_nodes,
            ),
        )
    recorder = _obs_active()
    if recorder is not None:
        recorder.event(
            "coloring",
            "phase",
            phase=phase,
            host_rounds=VIRTUAL_ROUND_FACTOR * result.total_rounds,
            virtual_rounds=result.total_rounds,
            palette=result.palette,
        )
    return result


def compute_edge_coloring(
    network: Network, target: Optional[int] = None
) -> EdgeColoringResult:
    """Edge-color a network with ``2d - 1`` colors (or ``target``).

    ``network`` may also be a :class:`repro.graph.CSRGraph`; the line
    graph is built on whichever substrate
    :func:`repro.graph.fast_path_csr` picks.
    """
    # Imported lazily — repro.graph imports the repro.coloring package.
    from repro.graph import fast_path_csr, line_graph_csr

    csr = fast_path_csr(network)
    if csr is None:
        virtual, edges = line_graph_network(network)
    elif csr.num_edges == 0:
        # Mirrors the reference path, where the empty line graph fails
        # Network's at-least-one-node invariant.
        raise SimulationError("network must have at least one node")
    else:
        virtual, edge_u, edge_v = line_graph_csr(csr)
        edges = zip(edge_u.tolist(), edge_v.tolist())
    result = _color_virtual("edge_coloring", virtual, target)
    return EdgeColoringResult(
        colors=dict(
            zip(edges, map(result.colors.__getitem__, range(virtual.num_nodes)))
        ),
        palette=result.palette,
        host_rounds=VIRTUAL_ROUND_FACTOR * result.total_rounds,
        virtual_rounds=result.total_rounds,
    )


def compute_two_hop_coloring(
    network: Network, target: Optional[int] = None
) -> TwoHopColoringResult:
    """2-hop color a network with ``d^2 + 1`` colors (or ``target``).

    ``network`` may also be a :class:`repro.graph.CSRGraph`; the square
    graph is built on whichever substrate
    :func:`repro.graph.fast_path_csr` picks.
    """
    from repro.graph import fast_path_csr, square_csr

    csr = fast_path_csr(network)
    virtual = square_graph_network(network) if csr is None else square_csr(csr)
    result = _color_virtual("two_hop_coloring", virtual, target)
    return TwoHopColoringResult(
        colors=dict(result.colors),
        palette=result.palette,
        host_rounds=VIRTUAL_ROUND_FACTOR * result.total_rounds,
        virtual_rounds=result.total_rounds,
    )
