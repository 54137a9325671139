"""Tests for the distributed scheduler's internal safety checks."""

import pytest

from repro.errors import SimulationError
from repro.core.indexing import indexed_dependency_network
from repro.core.local_protocol import LocalFixingProtocol
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
)
from repro.local_model.algorithm import NodeState
from repro.runtime.plan import ColorClass, FixCell, FixOp


def _round_class(instance, round_variables):
    """A color class fixing each variable in its own cell, at once."""
    return ColorClass(
        color=0,
        cells=tuple(
            FixCell(
                owner=name,
                ops=(
                    FixOp(
                        variable=name,
                        events=tuple(
                            event.name
                            for event in instance.events_of_variable(name)
                        ),
                    ),
                ),
            )
            for name in round_variables
        ),
    )


class TestRoundDisjointness:
    def test_accepts_disjoint_variables(self):
        instance = all_zero_edge_instance(cycle_graph(6), 3)
        # Edges {0,1} and {3,4} share no event.
        color_class = _round_class(
            instance, [("edge", 0, 1), ("edge", 3, 4)]
        )
        assert color_class.num_ops == 2

    def test_rejects_conflicting_variables(self):
        instance = all_zero_edge_instance(cycle_graph(6), 3)
        # Edges {0,1} and {1,2} share event 1.
        with pytest.raises(SimulationError, match="conflict"):
            _round_class(instance, [("edge", 0, 1), ("edge", 1, 2)])

    def test_rejects_triple_conflicts(self):
        instance = all_zero_triple_instance(9, cyclic_triples(9), 5)
        # Adjacent triples share events.
        with pytest.raises(SimulationError):
            _round_class(instance, [("tri", 0, 1, 2), ("tri", 1, 2, 3)])


class TestIndexedNetwork:
    def test_round_trip_mapping(self):
        instance = all_zero_edge_instance(cycle_graph(6), 3)
        network, to_index, from_index = indexed_dependency_network(instance)
        assert network.num_nodes == 6
        for name, index in to_index.items():
            assert from_index[index] == name

    def test_structure_preserved(self):
        instance = all_zero_triple_instance(9, cyclic_triples(9), 5)
        network, to_index, _from_index = indexed_dependency_network(instance)
        dependency = instance.dependency_graph
        assert network.graph.number_of_edges() == dependency.number_of_edges()
        for u, v in dependency.edges():
            assert network.graph.has_edge(to_index[u], to_index[v])


class TestProtocolMerging:
    def _node(self):
        node = NodeState(0, (1,))
        node.memory["fixed"] = {}
        node.memory["phi"] = {((0, 1), 0): (0, 1.0), ((0, 1), 1): (0, 1.0)}
        return node

    def test_fixed_merge_accepts_agreement(self):
        node = self._node()
        LocalFixingProtocol._merge_fixed(node, {"x": 1})
        LocalFixingProtocol._merge_fixed(node, {"x": 1})
        assert node.memory["fixed"]["x"] == 1

    def test_fixed_merge_rejects_conflict(self):
        node = self._node()
        LocalFixingProtocol._merge_fixed(node, {"x": 1})
        with pytest.raises(SimulationError, match="conflicting values"):
            LocalFixingProtocol._merge_fixed(node, {"x": 2})

    def test_phi_merge_prefers_higher_version(self):
        node = self._node()
        LocalFixingProtocol._merge_phi(node, {((0, 1), 0): (2, 0.5)})
        assert node.memory["phi"][((0, 1), 0)] == (2, 0.5)
        # A stale lower-version update is ignored.
        LocalFixingProtocol._merge_phi(node, {((0, 1), 0): (1, 1.7)})
        assert node.memory["phi"][((0, 1), 0)] == (2, 0.5)

    def test_phi_merge_rejects_same_version_conflict(self):
        node = self._node()
        LocalFixingProtocol._merge_phi(node, {((0, 1), 0): (3, 0.5)})
        with pytest.raises(SimulationError, match="conflicting phi"):
            LocalFixingProtocol._merge_phi(node, {((0, 1), 0): (3, 0.9)})

    def test_phi_merge_tolerates_equal_values(self):
        node = self._node()
        LocalFixingProtocol._merge_phi(node, {((0, 1), 0): (3, 0.5)})
        LocalFixingProtocol._merge_phi(node, {((0, 1), 0): (3, 0.5)})
        assert node.memory["phi"][((0, 1), 0)] == (3, 0.5)
