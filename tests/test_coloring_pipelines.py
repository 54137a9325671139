"""Unit tests for the end-to-end coloring pipelines."""

import dataclasses

import pytest

import repro.graph
from repro.coloring import derived
from repro.errors import ColoringError
from repro.coloring import (
    VIRTUAL_ROUND_FACTOR,
    compute_edge_coloring,
    compute_two_hop_coloring,
    compute_vertex_coloring,
    is_proper_edge_coloring,
    is_proper_vertex_coloring,
    is_two_hop_coloring,
)
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
    grid_graph,
    random_regular_graph,
    random_tree,
)
from repro.local_model import Network
from repro.planes import using_planes
from repro.runtime.plan import build_plan_rank2, build_plan_rank3

GRAPH_PLANES = ("vectorized", "reference")


class TestVertexPipeline:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: cycle_graph(40),
            lambda: random_regular_graph(40, 4, seed=1),
            lambda: random_tree(40, seed=2),
            lambda: grid_graph(5, 8),
        ],
    )
    def test_proper_with_default_target(self, graph_factory):
        graph = graph_factory()
        network = Network(graph)
        result = compute_vertex_coloring(network)
        assert is_proper_vertex_coloring(graph, result.colors)
        assert result.palette == network.max_degree + 1
        assert result.num_colors_used <= result.palette

    def test_explicit_target(self):
        graph = cycle_graph(30)
        result = compute_vertex_coloring(Network(graph), target=5)
        assert max(result.colors.values()) < 5

    def test_target_below_degree_rejected(self):
        graph = random_regular_graph(20, 4, seed=0)
        with pytest.raises(ColoringError):
            compute_vertex_coloring(Network(graph), target=4)

    def test_unknown_reduction_rejected(self):
        graph = cycle_graph(10)
        with pytest.raises(ColoringError):
            compute_vertex_coloring(Network(graph), reduction="magic")

    def test_greedy_and_kw_agree_on_properness(self):
        graph = random_regular_graph(30, 3, seed=3)
        for reduction in ("kw", "greedy"):
            result = compute_vertex_coloring(Network(graph), reduction=reduction)
            assert is_proper_vertex_coloring(graph, result.colors)

    def test_total_rounds_sum(self):
        graph = cycle_graph(100)
        result = compute_vertex_coloring(Network(graph))
        assert result.total_rounds == (
            result.linial_rounds + result.reduction_rounds
        )

    def test_log_star_shape_in_n(self):
        # Past the Linial fixpoint the total round count is flat in n.
        totals = [
            compute_vertex_coloring(Network(cycle_graph(n))).total_rounds
            for n in (200, 400, 800)
        ]
        assert totals[1] == totals[2]


class TestEdgePipeline:
    def test_proper_edge_coloring(self):
        graph = random_regular_graph(24, 4, seed=4)
        result = compute_edge_coloring(Network(graph))
        assert is_proper_edge_coloring(graph, result.colors)
        # Default target: line-graph degree + 1 = 2d - 1.
        assert result.palette <= 2 * 4 - 1

    def test_host_round_accounting(self):
        graph = cycle_graph(20)
        result = compute_edge_coloring(Network(graph))
        assert result.host_rounds == VIRTUAL_ROUND_FACTOR * result.virtual_rounds

    def test_path_graph_edges(self):
        import networkx as nx

        graph = nx.path_graph(10)
        result = compute_edge_coloring(Network(graph))
        assert is_proper_edge_coloring(graph, result.colors)


class TestTwoHopPipeline:
    def test_two_hop_coloring(self):
        graph = random_regular_graph(30, 3, seed=5)
        result = compute_two_hop_coloring(Network(graph))
        assert is_two_hop_coloring(graph, result.colors)
        assert result.palette <= 3 * 3 + 1

    def test_cycle_two_hop(self):
        graph = cycle_graph(25)
        result = compute_two_hop_coloring(Network(graph))
        assert is_two_hop_coloring(graph, result.colors)
        # G^2 of a long cycle is 4-regular: palette 5.
        assert result.palette == 5

    def test_host_round_accounting(self):
        graph = cycle_graph(20)
        result = compute_two_hop_coloring(Network(graph))
        assert result.host_rounds == VIRTUAL_ROUND_FACTOR * result.virtual_rounds


class TestValidators:
    def test_vertex_validator_rejects_improper(self):
        graph = cycle_graph(4)
        colors = {0: 0, 1: 0, 2: 1, 3: 2}
        assert not is_proper_vertex_coloring(graph, colors)

    def test_vertex_validator_rejects_missing(self):
        graph = cycle_graph(4)
        assert not is_proper_vertex_coloring(graph, {0: 0, 1: 1})

    def test_edge_validator_rejects_shared_endpoint(self):
        graph = cycle_graph(4)
        colors = {(0, 1): 0, (1, 2): 0, (2, 3): 1, (0, 3): 1}
        assert not is_proper_edge_coloring(graph, colors)

    def test_two_hop_validator_rejects_distance_two(self):
        import networkx as nx

        graph = nx.path_graph(3)
        colors = {0: 0, 1: 1, 2: 0}  # proper, but 0 and 2 are 2 apart
        assert is_proper_vertex_coloring(graph, colors)
        assert not is_two_hop_coloring(graph, colors)


class TestVirtualGraphRecheck:
    """The edge and 2-hop entry points recheck properness once, on the
    virtual graph, on either substrate."""

    @pytest.mark.parametrize("graph", GRAPH_PLANES)
    @pytest.mark.parametrize(
        "build, instance_factory",
        [
            (
                build_plan_rank2,
                lambda: all_zero_edge_instance(cycle_graph(8), 3),
            ),
            (
                build_plan_rank3,
                lambda: all_zero_triple_instance(12, cyclic_triples(12), 5),
            ),
        ],
    )
    def test_one_recheck_per_plan_coloring(
        self, monkeypatch, graph, build, instance_factory
    ):
        calls = []
        for module, name in (
            (derived, "require_proper_vertex_coloring"),
            (repro.graph, "validate_proper_vertex_arrays"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        with using_planes(graph=graph, artifacts="off"):
            build(instance_factory())
        expected = (
            "validate_proper_vertex_arrays"
            if graph == "vectorized"
            else "require_proper_vertex_coloring"
        )
        assert calls == [expected]

    @pytest.mark.parametrize("graph", GRAPH_PLANES)
    @pytest.mark.parametrize(
        "compute", [compute_edge_coloring, compute_two_hop_coloring]
    )
    def test_improper_virtual_coloring_is_rejected(
        self, monkeypatch, graph, compute
    ):
        original = derived.compute_vertex_coloring

        def monochrome(network, **kwargs):
            result = original(network, **kwargs)
            return dataclasses.replace(
                result, colors=dict.fromkeys(result.colors, 0)
            )

        monkeypatch.setattr(derived, "compute_vertex_coloring", monochrome)
        with using_planes(graph=graph), pytest.raises(ColoringError):
            compute(Network(cycle_graph(6)))
