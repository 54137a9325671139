"""Unit tests for the property-P* bookkeeping state (Definition 3.1)."""

import pytest

from repro.errors import PStarViolationError
from repro.core import PStarState
from repro.probability import PartialAssignment


@pytest.fixture
def state(small_rank3_instance):
    return PStarState(small_rank3_instance)


class TestInitialState:
    def test_all_values_start_at_one(self, state, small_rank3_instance):
        graph = small_rank3_instance.dependency_graph
        for u, v in graph.edges():
            assert state.value(u, v, u) == 1.0
            assert state.value(u, v, v) == 1.0

    def test_initial_node_product(self, state, small_rank3_instance):
        for event in small_rank3_instance.events:
            assert state.node_product(event.name) == 1.0

    def test_initial_bound_is_p(self, state, small_rank3_instance):
        for event in small_rank3_instance.events:
            assert state.certified_bound(event.name) == pytest.approx(
                event.probability()
            )

    def test_initial_check_passes(self, state):
        state.check(PartialAssignment())


class TestEdgeUpdates:
    def test_set_and_read(self, state, small_rank3_instance):
        u, v = next(iter(small_rank3_instance.dependency_graph.edges()))
        state.set_edge(u, v, 1.5, 0.5)
        assert state.value(u, v, u) == 1.5
        assert state.value(u, v, v) == 0.5

    def test_sum_violation_rejected(self, state, small_rank3_instance):
        u, v = next(iter(small_rank3_instance.dependency_graph.edges()))
        with pytest.raises(PStarViolationError):
            state.set_edge(u, v, 1.5, 0.6)

    def test_range_violation_rejected(self, state, small_rank3_instance):
        u, v = next(iter(small_rank3_instance.dependency_graph.edges()))
        with pytest.raises(PStarViolationError):
            state.set_edge(u, v, 2.5, 0.0)
        with pytest.raises(PStarViolationError):
            state.set_edge(u, v, -0.5, 0.5)

    def test_tolerance_clamping(self, state, small_rank3_instance):
        u, v = next(iter(small_rank3_instance.dependency_graph.edges()))
        state.set_edge(u, v, 1.0 + 1e-9, 1.0 + 1e-9)
        assert state.value(u, v, u) + state.value(u, v, v) <= 2.0

    def test_unknown_edge_rejected(self, state):
        with pytest.raises(PStarViolationError):
            state.set_edge("nope", "nada", 1.0, 1.0)

    def test_wrong_side_rejected(self, state, small_rank3_instance):
        u, v = next(iter(small_rank3_instance.dependency_graph.edges()))
        with pytest.raises(PStarViolationError):
            state.value(u, v, "stranger")

    def test_node_product_reflects_updates(self, state, small_rank3_instance):
        graph = small_rank3_instance.dependency_graph
        node = next(iter(graph.nodes()))
        neighbors = list(graph.neighbors(node))
        state.set_edge(node, neighbors[0], 2.0, 0.0)
        expected = 2.0  # other edges still 1.0
        assert state.node_product(node) == pytest.approx(expected)


class TestCheck:
    def test_check_detects_probability_violation(
        self, state, small_rank3_instance
    ):
        # Zero out every phi on one node's side: bound becomes 0 < Pr.
        graph = small_rank3_instance.dependency_graph
        node = next(iter(graph.nodes()))
        for neighbor in graph.neighbors(node):
            state.set_edge(node, neighbor, 0.0, 1.0)
        with pytest.raises(PStarViolationError):
            state.check(PartialAssignment())

    def test_snapshot_is_flat_copy(self, state):
        snapshot = state.snapshot()
        assert all(value == 1.0 for value in snapshot.values())
        # Mutating the snapshot does not touch the state.
        key = next(iter(snapshot))
        snapshot[key] = 99.0
        edge_key, side = key
        u, v = tuple(edge_key)
        assert state.value(u, v, side) == 1.0

    def test_initial_probabilities_copy(self, state):
        probabilities = state.initial_probabilities
        name = next(iter(probabilities))
        probabilities[name] = 42.0
        assert state.initial_probabilities[name] != 42.0


def test_unknown_event_is_a_pstar_violation():
    from repro.core import Rank3Fixer
    from repro.generators import build_family_instance

    pstar = Rank3Fixer(build_family_instance("triples", 12, alphabet=5)).pstar
    for call in (pstar.node_product, pstar.certified_bound):
        with pytest.raises(PStarViolationError, match="no event named 'nope'"):
            call("nope")
