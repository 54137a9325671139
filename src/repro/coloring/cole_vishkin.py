"""Cole-Vishkin 3-coloring of rooted pseudoforests in O(log* n) rounds.

The historical origin of the ``log* n`` bound the paper's corollaries
inherit: on a graph where every node knows a *parent* among its
neighbors (a rooted pseudoforest — e.g. an oriented cycle or a rooted
tree), iterated bit tricks shrink unique identifiers to six colors in
``log* n`` rounds, and three shift-down phases finish the job with a
palette of three.

One reduction round: a node with color ``c`` and parent color ``c_p``
finds the lowest bit position ``i`` where they differ and recolors to
``2i + bit_i(c)``.  Adjacent (child, parent) pairs stay properly colored
— if both picked the same position, their bits there differ; otherwise
the positions differ — and ``n``-bit colors shrink to
``~2 log n``-bit colors per round, down to the fixpoint palette
``{0..5}``.

Shift-down phase (to eliminate a color class ``x`` in {3, 4, 5}): first
every node adopts its parent's color (roots rotate theirs), making every
node's children monochromatic; then the class-``x`` nodes see at most
two distinct colors around them and pick a free color from ``{0, 1, 2}``.

This module complements :mod:`repro.coloring.linial` (which handles
arbitrary bounded-degree graphs); it is the right tool when an
orientation is available, matching the classic treatment of cycles.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.errors import ColoringError
from repro.local_model.algorithm import LocalAlgorithm, NodeState
from repro.local_model.network import Network
from repro.local_model.simulator import Simulator


def cv_reduce(color: int, parent_color: int) -> int:
    """One Cole-Vishkin step: ``(c, c_parent) -> 2i + bit_i(c)``."""
    if color == parent_color:
        raise ColoringError(
            "child and parent share a color; input coloring is improper"
        )
    differing = color ^ parent_color
    position = (differing & -differing).bit_length() - 1
    bit = (color >> position) & 1
    return 2 * position + bit


def cv_rounds_needed(identifier_space: int) -> int:
    """Rounds until colors provably sit in {0..5}, from ``[N]`` ids."""
    rounds = 0
    palette = max(identifier_space, 2)
    while palette > 6:
        # colors < palette need ceil(log2 palette) bits; the new color is
        # 2 * position + bit < 2 * bits.
        bits = (palette - 1).bit_length()
        palette = 2 * bits
        rounds += 1
    return rounds


class ColeVishkinAlgorithm(LocalAlgorithm):
    """LOCAL algorithm: 3-color a rooted pseudoforest.

    Node input: the identifier of the node's parent (a neighbor), or
    ``None`` for roots.  Roots simulate a parent whose color always
    differs (their identifier with the lowest bit flipped, then a
    rotating palette color during shift-downs).

    Rounds: ``cv_rounds_needed(N)`` bit-reduction rounds, then 6 rounds
    (three shift-down + recolor pairs) to eliminate colors 5, 4, 3.
    """

    #: The three shift-down target classes, eliminated in this order.
    _ELIMINATE = (5, 4, 3)

    def __init__(self, identifier_space: int) -> None:
        if identifier_space < 1:
            raise ColoringError("identifier_space must be positive")
        self._reduction_rounds = cv_rounds_needed(identifier_space)
        self._total_rounds = self._reduction_rounds + 2 * len(self._ELIMINATE)

    @property
    def rounds_needed(self) -> int:
        """Total rounds the algorithm takes."""
        return self._total_rounds

    def initialize(self, node: NodeState) -> None:
        parent = node.input
        if parent is not None and parent not in node.neighbors:
            raise ColoringError(
                f"node {node.identifier!r}: parent {parent!r} is not a "
                f"neighbor"
            )
        node.memory["parent"] = parent
        node.memory["color"] = node.identifier
        if not isinstance(node.identifier, int) or node.identifier < 0:
            raise ColoringError("node identifiers must be non-negative ints")

    def send(self, node: NodeState, round_number: int) -> Dict[Hashable, int]:
        color = node.memory["color"]
        return {neighbor: color for neighbor in node.neighbors}

    def receive(self, node: NodeState, messages, round_number: int) -> None:
        parent = node.memory["parent"]
        color = node.memory["color"]
        parent_color = messages.get(parent) if parent is not None else None

        if round_number <= self._reduction_rounds:
            if parent is None:
                # Roots pretend their parent differs in the lowest bit.
                parent_color = color ^ 1
            node.memory["color"] = cv_reduce(color, parent_color)
        else:
            phase = round_number - self._reduction_rounds - 1
            eliminate = self._ELIMINATE[phase // 2]
            if phase % 2 == 0:
                # Shift-down: adopt the parent's color; roots rotate.
                if parent is None:
                    node.memory["color"] = (color + 1) % 3
                else:
                    node.memory["color"] = parent_color
            else:
                if node.memory["color"] == eliminate:
                    used = {c for c in messages.values() if c is not None}
                    for candidate in range(3):
                        if candidate not in used:
                            node.memory["color"] = candidate
                            break
                    else:
                        raise ColoringError(
                            f"node {node.identifier!r}: no free color in "
                            f"{{0, 1, 2}} during shift-down"
                        )
        if round_number == self._total_rounds:
            node.halt_with(node.memory["color"])


def compute_cole_vishkin_coloring(
    network: Network, parents: Dict[Hashable, Hashable]
) -> Dict[str, object]:
    """Run Cole-Vishkin on a network with the given parent pointers.

    Parameters
    ----------
    network:
        The communication graph (identifiers must be non-negative ints).
    parents:
        ``node -> parent neighbor`` (or ``None`` for roots); every node
        must appear.

    Returns a dict with ``colors`` (node -> color in {0, 1, 2}) and
    ``rounds``.
    """
    missing = [node for node in network.nodes if node not in parents]
    if missing:
        raise ColoringError(f"no parent entry for nodes {missing[:3]!r}")
    # Array-native fast path: one CSR gather per round instead of a
    # per-node message loop.  Imported lazily (repro.graph imports the
    # coloring package).
    from repro.graph import cole_vishkin_arrays, fast_path_csr

    csr = fast_path_csr(network)
    if csr is not None:
        return cole_vishkin_arrays(csr, parents)
    algorithm = ColeVishkinAlgorithm(network.identifier_space())
    simulator = Simulator(network, algorithm, inputs=dict(parents))
    result = simulator.run(max_rounds=algorithm.rounds_needed + 1)
    return {"colors": dict(result.outputs), "rounds": result.rounds}


def cycle_parents(num_nodes: int) -> Dict[int, int]:
    """The canonical orientation of a generator cycle: parent = (i+1) % n."""
    if num_nodes < 3:
        raise ColoringError("a cycle needs at least 3 nodes")
    return {node: (node + 1) % num_nodes for node in range(num_nodes)}
