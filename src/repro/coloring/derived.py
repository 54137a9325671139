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

from repro.coloring.vertex import ColoringResult, compute_vertex_coloring
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


def compute_edge_coloring(
    network: Network, target: Optional[int] = None
) -> EdgeColoringResult:
    """Edge-color a network with ``2d - 1`` colors (or ``target``).

    ``network`` may also be a :class:`repro.graph.CSRGraph`, in which
    case the array-native substrate is used directly.
    """
    # Imported lazily — repro.graph imports this module for the result
    # dataclasses.
    from repro.graph import edge_coloring_arrays, fast_path_csr

    csr = fast_path_csr(network)
    if csr is not None:
        return edge_coloring_arrays(csr, target)
    virtual, index = line_graph_network(network)
    if target is None:
        target = max(virtual.max_degree + 1, 1)
    with _obs_span("coloring", "edge_coloring"):
        result = compute_vertex_coloring(virtual, target=target)
    edge_colors = {
        edge: result.colors[virtual_node] for edge, virtual_node in index.items()
    }
    recorder = _obs_active()
    if recorder is not None:
        recorder.event(
            "coloring",
            "phase",
            phase="edge_coloring",
            host_rounds=VIRTUAL_ROUND_FACTOR * result.total_rounds,
            virtual_rounds=result.total_rounds,
            palette=result.palette,
        )
    return EdgeColoringResult(
        colors=edge_colors,
        palette=result.palette,
        host_rounds=VIRTUAL_ROUND_FACTOR * result.total_rounds,
        virtual_rounds=result.total_rounds,
    )


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


def compute_two_hop_coloring(
    network: Network, target: Optional[int] = None
) -> TwoHopColoringResult:
    """2-hop color a network with ``d^2 + 1`` colors (or ``target``).

    ``network`` may also be a :class:`repro.graph.CSRGraph`, in which
    case the array-native substrate is used directly.
    """
    from repro.graph import fast_path_csr, two_hop_coloring_arrays

    csr = fast_path_csr(network)
    if csr is not None:
        return two_hop_coloring_arrays(csr, target)
    square = square_graph_network(network)
    if target is None:
        target = max(square.max_degree + 1, 1)
    with _obs_span("coloring", "two_hop_coloring"):
        result = compute_vertex_coloring(square, target=target)
    recorder = _obs_active()
    if recorder is not None:
        recorder.event(
            "coloring",
            "phase",
            phase="two_hop_coloring",
            host_rounds=VIRTUAL_ROUND_FACTOR * result.total_rounds,
            virtual_rounds=result.total_rounds,
            palette=result.palette,
        )
    return TwoHopColoringResult(
        colors=dict(result.colors),
        palette=result.palette,
        host_rounds=VIRTUAL_ROUND_FACTOR * result.total_rounds,
        virtual_rounds=result.total_rounds,
    )
