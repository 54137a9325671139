"""Differential suite for the array-native graph substrate.

Pins down the contract of the PR: everything :mod:`repro.graph` computes
— CSR adjacency, virtual-graph constructions, vectorized colorings,
batched simulator rounds, CSR-backed plans — is *element-identical* to
the per-node / networkx reference implementations, including
multi-component graphs, isolated nodes, and single-node networks.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coloring.cole_vishkin import (
    compute_cole_vishkin_coloring,
    cycle_parents,
)
from repro.coloring.derived import (
    compute_edge_coloring,
    compute_two_hop_coloring,
)
from repro.coloring.linial import LinialColoringAlgorithm
from repro.coloring.reduction import (
    GreedyColorReductionAlgorithm,
    KWColorReductionAlgorithm,
)
from repro.coloring.vertex import compute_vertex_coloring
from repro.core.distributed import solve_distributed
from repro.core.indexing import indexed_csr, indexed_dependency_network
from repro.errors import ColoringError, GraphSubstrateError
from repro.generators.graphs import cycle_csr, random_regular_csr, torus_csr
from repro.generators.instances import all_zero_edge_instance
from repro.graph import csr as csr_module
from repro.graph import (
    BatchedSimulator,
    CSRGraph,
    GreedyReductionArrayAlgorithm,
    KWReductionArrayAlgorithm,
    LinialArrayAlgorithm,
    line_graph_csr,
    square_csr,
)
from repro.graph.csr import sort_unique
from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.network import (
    Network,
    line_graph_network,
    square_graph_network,
)
from repro.local_model.simulator import Simulator
from repro.planes import using_planes
from repro.runtime.plan import (
    build_plan_rank2,
    build_plan_rank3,
    plan_for_instance,
)


@st.composite
def random_graphs(draw, min_nodes=1, max_nodes=32):
    """Erdős–Rényi graphs incl. edgeless, isolated-node, multi-component."""
    n = draw(st.integers(min_nodes, max_nodes))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6]))
    seed = draw(st.integers(0, 10**6))
    return nx.gnp_random_graph(n, density, seed=seed)


@st.composite
def instance_graphs(draw, max_nodes=18):
    """Cycle plus random chords: connected, no isolated nodes."""
    n = draw(st.integers(3, max_nodes))
    extra = draw(st.integers(0, n // 2))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    graph = nx.cycle_graph(n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


@st.composite
def rooted_forests(draw, max_nodes=40):
    """A random labelled tree with parents oriented toward node 0."""
    n = draw(st.integers(2, max_nodes))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    if n == 2:
        tree = nx.path_graph(2)
    else:
        tree = nx.from_prufer_sequence(
            [rng.randrange(n) for _ in range(n - 2)]
        )
    parents = {0: None}
    for parent, child in nx.bfs_edges(tree, 0):
        parents[child] = parent
    return tree, parents


class TestCSRAdjacency:
    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, graph):
        if graph.number_of_nodes() == 0:
            return
        csr = CSRGraph.from_networkx(graph)
        assert csr.num_nodes == graph.number_of_nodes()
        assert csr.num_edges == graph.number_of_edges()
        for node in graph.nodes():
            assert csr.neighbors(node) == sorted(graph.neighbors(node))
        assert sorted(map(tuple, map(sorted, csr.edges()))) == sorted(
            map(tuple, map(sorted, graph.edges()))
        )
        assert dict(csr.degree()) == dict(graph.degree())

    @given(random_graphs())
    @settings(max_examples=20, deadline=None)
    def test_duck_api_yields_python_ints(self, graph):
        if graph.number_of_nodes() == 0:
            return
        csr = CSRGraph.from_networkx(graph)
        for node in csr.nodes():
            assert type(node) is int
            for neighbor in csr.neighbors(node):
                assert type(neighbor) is int
        for u, v in csr.edges():
            assert type(u) is int and type(v) is int

    def test_isolated_nodes_and_components(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(10))
        graph.add_edges_from([(0, 1), (1, 2), (5, 6), (8, 9)])
        csr = CSRGraph.from_networkx(graph)
        assert csr.neighbors(3) == []
        assert csr.neighbors(4) == []
        assert csr.max_degree == 2
        assert csr.has_edge(5, 6) and not csr.has_edge(5, 8)

    def test_rejects_self_loops_and_bad_endpoints(self):
        with pytest.raises(GraphSubstrateError):
            CSRGraph.from_edges(
                3, np.array([0, 1]), np.array([0, 2])
            )
        with pytest.raises(GraphSubstrateError):
            CSRGraph.from_edges(3, np.array([0]), np.array([5]))

    def test_object_dtype_fails_loudly(self):
        with pytest.raises(GraphSubstrateError, match="object"):
            CSRGraph.from_edges(
                3,
                np.array([0, None], dtype=object),
                np.array([1, 2], dtype=object),
            )
        with pytest.raises(GraphSubstrateError):
            CSRGraph.from_edges(
                3, np.array([0.0, 1.0]), np.array([1.0, 2.0])
            )


class TestVirtualGraphs:
    @given(random_graphs(min_nodes=2))
    @settings(max_examples=40, deadline=None)
    def test_line_graph_matches_reference(self, graph):
        if graph.number_of_edges() == 0:
            return
        network = Network(graph)
        virtual, index = line_graph_network(network)
        csr = CSRGraph.from_networkx(graph)
        line, edge_u, edge_v = line_graph_csr(csr)
        # Same numbering: the i-th lexicographic edge is virtual node i.
        for i, (u, v) in enumerate(zip(edge_u.tolist(), edge_v.tolist())):
            assert index[(u, v)] == i
        assert sorted(map(tuple, map(sorted, line.edges()))) == sorted(
            map(tuple, map(sorted, virtual.graph.edges()))
        )

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_square_graph_matches_reference(self, graph):
        if graph.number_of_nodes() == 0:
            return
        network = Network(graph)
        square_ref = square_graph_network(network)
        square = square_csr(CSRGraph.from_networkx(graph))
        assert sorted(map(tuple, map(sorted, square.edges()))) == sorted(
            map(tuple, map(sorted, square_ref.graph.edges()))
        )


class TestSortUnique:
    """The CSR constructions dedupe keys by sort and mask, not np.unique."""

    @given(
        st.lists(st.integers(-(2 ** 62), 2 ** 62), max_size=300),
        st.sampled_from(["as-drawn", "sorted", "all-duplicates", "repeated"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_unique(self, values, arrangement):
        keys = np.asarray(values, dtype=np.int64)
        if arrangement == "sorted":
            keys = np.sort(keys)
        elif arrangement == "all-duplicates":
            keys = np.full(len(keys), keys[0] if len(keys) else 5, np.int64)
        elif arrangement == "repeated":
            keys = np.concatenate([keys, keys[::-1], keys])
        before = keys.copy()
        result = sort_unique(keys)
        expected = np.unique(keys)
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected)
        assert np.array_equal(keys, before)

    def test_empty_and_single(self):
        for keys in (np.empty(0, np.int64), np.array([7], np.int64)):
            assert np.array_equal(sort_unique(keys), np.unique(keys))
            assert sort_unique(keys).dtype == np.int64

    @given(random_graphs(), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_square_in_small_chunks_matches_reference(self, graph, chunk):
        """Chunk boundaries of the two-hop expansion leave G^2 unchanged."""
        if graph.number_of_nodes() == 0:
            return
        square_ref = square_graph_network(Network(graph))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csr_module, "_EXPANSION_CHUNK", chunk)
            square = square_csr(CSRGraph.from_networkx(graph))
        assert sorted(map(tuple, map(sorted, square.edges()))) == sorted(
            map(tuple, map(sorted, square_ref.graph.edges()))
        )


class TestColoringDifferential:
    @given(random_graphs(), st.sampled_from(["kw", "greedy"]))
    @settings(max_examples=30, deadline=None)
    def test_vertex_coloring_bit_identical(self, graph, reduction):
        if graph.number_of_nodes() == 0:
            return
        network = Network(graph)
        with using_planes(graph="reference"):
            ref = compute_vertex_coloring(network, reduction=reduction)
        with using_planes(graph="vectorized"):
            fast = compute_vertex_coloring(network, reduction=reduction)
        assert ref.colors == fast.colors
        assert ref.palette == fast.palette
        assert ref.linial_rounds == fast.linial_rounds
        assert ref.reduction_rounds == fast.reduction_rounds

    @given(random_graphs(min_nodes=2))
    @settings(max_examples=20, deadline=None)
    def test_edge_coloring_bit_identical(self, graph):
        if graph.number_of_edges() == 0:
            return
        network = Network(graph)
        with using_planes(graph="reference"):
            ref = compute_edge_coloring(network)
        with using_planes(graph="vectorized"):
            fast = compute_edge_coloring(network)
        assert ref.colors == fast.colors
        assert (ref.palette, ref.host_rounds, ref.virtual_rounds) == (
            fast.palette,
            fast.host_rounds,
            fast.virtual_rounds,
        )

    @given(random_graphs())
    @settings(max_examples=20, deadline=None)
    def test_two_hop_coloring_bit_identical(self, graph):
        if graph.number_of_nodes() == 0:
            return
        network = Network(graph)
        with using_planes(graph="reference"):
            ref = compute_two_hop_coloring(network)
        with using_planes(graph="vectorized"):
            fast = compute_two_hop_coloring(network)
        assert ref.colors == fast.colors
        assert (ref.palette, ref.host_rounds, ref.virtual_rounds) == (
            fast.palette,
            fast.host_rounds,
            fast.virtual_rounds,
        )

    @given(rooted_forests())
    @settings(max_examples=25, deadline=None)
    def test_cole_vishkin_bit_identical(self, tree_and_parents):
        tree, parents = tree_and_parents
        network = Network(tree)
        with using_planes(graph="reference"):
            ref = compute_cole_vishkin_coloring(network, parents)
        with using_planes(graph="vectorized"):
            fast = compute_cole_vishkin_coloring(network, parents)
        assert ref == fast

    @given(st.integers(3, 60))
    @settings(max_examples=15, deadline=None)
    def test_cole_vishkin_cycles(self, n):
        network = Network(nx.cycle_graph(n))
        parents = cycle_parents(n)
        with using_planes(graph="reference"):
            ref = compute_cole_vishkin_coloring(network, parents)
        with using_planes(graph="vectorized"):
            fast = compute_cole_vishkin_coloring(network, parents)
        assert ref == fast

    def test_csr_input_accepted_directly(self):
        csr = cycle_csr(12)
        result = compute_two_hop_coloring(csr)
        with using_planes(graph="reference"):
            ref = compute_two_hop_coloring(Network(nx.cycle_graph(12)))
        assert result.colors == ref.colors

    def test_improper_input_raises_in_both_backends(self):
        # Two adjacent nodes with equal colors: Linial must refuse.
        network = Network(nx.path_graph(2))
        csr = CSRGraph.from_networkx(nx.path_graph(2))
        algorithm = LinialColoringAlgorithm(64, 1)
        assert len(algorithm.schedule) > 0
        with pytest.raises(ColoringError):
            Simulator(
                network, algorithm, inputs={0: 1, 1: 1}
            ).run()
        fast = LinialArrayAlgorithm(64, 1)
        with pytest.raises(ColoringError):
            BatchedSimulator(
                csr, fast, inputs=np.array([1, 1])
            ).run()


class TestBatchedSimulator:
    @given(random_graphs(), st.sampled_from(["linial", "kw", "greedy"]))
    @settings(max_examples=25, deadline=None)
    def test_rounds_match_dict_simulator(self, graph, phase):
        if graph.number_of_nodes() == 0:
            return
        network = Network(graph)
        csr = CSRGraph.from_networkx(graph)
        n = csr.num_nodes
        degree = max(csr.max_degree, 1)
        if phase == "linial":
            reference = LinialColoringAlgorithm(n, degree)
            batched = LinialArrayAlgorithm(n, degree)
            inputs_ref = None
            inputs_arr = None
        else:
            # Reduce a valid (identity) coloring of palette n.
            target = csr.max_degree + 1
            if target >= n:
                return
            if phase == "kw":
                reference = KWColorReductionAlgorithm(n, target, csr.max_degree)
                batched = KWReductionArrayAlgorithm(n, target, csr.max_degree)
            else:
                reference = GreedyColorReductionAlgorithm(
                    n, target, csr.max_degree
                )
                batched = GreedyReductionArrayAlgorithm(
                    n, target, csr.max_degree
                )
            inputs_ref = {node: node for node in range(n)}
            inputs_arr = np.arange(n)
        ref = Simulator(
            network, reference, inputs=inputs_ref, record_trace=True
        ).run()
        fast = BatchedSimulator(
            csr, batched, inputs=inputs_arr, record_trace=True
        ).run()
        assert ref.outputs == fast.outputs
        assert ref.rounds == fast.rounds
        assert ref.messages_delivered == fast.messages_delivered
        assert ref.round_messages == fast.round_messages
        assert ref.round_payload_chars == fast.round_payload_chars
        assert ref.trace == fast.trace

    def test_inputs_dtype_guard(self):
        csr = cycle_csr(5)
        with pytest.raises(GraphSubstrateError):
            BatchedSimulator(
                csr,
                LinialArrayAlgorithm(5, 2),
                inputs=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            )
        with pytest.raises(GraphSubstrateError):
            BatchedSimulator(
                csr, LinialArrayAlgorithm(5, 2), inputs=np.arange(4)
            )


class TestPlanAndSolveDifferential:
    @given(instance_graphs())
    @settings(max_examples=15, deadline=None)
    def test_plans_identical_across_backends(self, graph):
        instance = all_zero_edge_instance(graph, 3)
        # Artifacts off: each side builds its own plan instead of the
        # second reading the first from the plans tier.
        with using_planes(graph="reference", artifacts="off"):
            ref2 = build_plan_rank2(instance)
            ref3 = build_plan_rank3(instance)
        with using_planes(graph="vectorized", artifacts="off"):
            fast2 = build_plan_rank2(instance)
            fast3 = build_plan_rank3(instance)
        assert ref2 is not fast2 and ref3 is not fast3
        assert ref2 == fast2
        assert ref3 == fast3

    @given(st.integers(3, 10))
    @settings(max_examples=8, deadline=None)
    def test_solve_distributed_identical(self, n):
        # Regular degrees keep the instance below the p < 2^-d threshold.
        instance = all_zero_edge_instance(nx.cycle_graph(n), 3)
        with using_planes(graph="reference", artifacts="off"):
            ref_plan = plan_for_instance(instance)
            ref = solve_distributed(instance)
        with using_planes(graph="vectorized", artifacts="off"):
            fast_plan = plan_for_instance(instance)
            fast = solve_distributed(instance)
        assert ref_plan is not fast_plan
        assert ref_plan == fast_plan
        assert (
            ref.fixing.assignment.as_dict() == fast.fixing.assignment.as_dict()
        )
        assert ref.fixing.steps == fast.fixing.steps
        assert (ref.coloring_rounds, ref.schedule_rounds, ref.palette) == (
            fast.coloring_rounds,
            fast.schedule_rounds,
            fast.palette,
        )

    @given(instance_graphs())
    @settings(max_examples=10, deadline=None)
    def test_indexed_csr_matches_indexed_network(self, graph):
        instance = all_zero_edge_instance(graph, 3)
        network, to_index, from_index = indexed_dependency_network(instance)
        csr, to_index2, from_index2 = indexed_csr(instance)
        assert to_index == to_index2
        assert from_index == from_index2
        assert sorted(map(tuple, map(sorted, csr.edges()))) == sorted(
            map(tuple, map(sorted, network.graph.edges()))
        )

    def test_indexings_are_cached_per_instance(self):
        instance = all_zero_edge_instance(nx.cycle_graph(8), 3)
        assert (
            indexed_dependency_network(instance)[0]
            is indexed_dependency_network(instance)[0]
        )
        assert indexed_csr(instance)[0] is indexed_csr(instance)[0]


class _CountingPayload:
    """A message whose ``repr`` calls are observable."""

    calls = 0

    def __repr__(self) -> str:
        type(self).calls += 1
        return "<payload>"


class _OneRoundBroadcast(LocalAlgorithm):
    def __init__(self, payload):
        self._payload = payload

    def initialize(self, node):
        pass

    def send(self, node, round_number):
        return {neighbor: self._payload for neighbor in node.neighbors}

    def receive(self, node, messages, round_number):
        node.halt_with(0)


class TestPayloadAccountingOptIn:
    """Regression: payload sizing must not run ``repr`` when tracing is off."""

    def test_no_repr_calls_when_tracing_off(self):
        _CountingPayload.calls = 0
        network = Network(nx.path_graph(3))
        result = Simulator(
            network, _OneRoundBroadcast(_CountingPayload())
        ).run()
        assert _CountingPayload.calls == 0
        assert result.round_payload_chars == (0,)
        assert result.messages_delivered == 4  # accounting still exact

    def test_repr_runs_under_record_trace(self):
        _CountingPayload.calls = 0
        network = Network(nx.path_graph(3))
        result = Simulator(
            network, _OneRoundBroadcast(_CountingPayload()), record_trace=True
        ).run()
        assert _CountingPayload.calls == 4
        assert result.total_payload_chars == 4 * len("<payload>")
        assert result.trace[0].payload_chars == result.total_payload_chars

    def test_track_payload_without_trace(self):
        _CountingPayload.calls = 0
        network = Network(nx.path_graph(3))
        result = Simulator(
            network,
            _OneRoundBroadcast(_CountingPayload()),
            track_payload=True,
        ).run()
        assert _CountingPayload.calls == 4
        assert result.total_payload_chars > 0
        assert result.trace == []


class TestCSRGenerators:
    def test_cycle_csr_matches_networkx(self):
        csr = cycle_csr(50)
        ref = nx.cycle_graph(50)
        assert sorted(map(tuple, map(sorted, csr.edges()))) == sorted(
            map(tuple, map(sorted, ref.edges()))
        )

    def test_torus_csr_matches_networkx(self):
        csr = torus_csr(4, 6)
        ref = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(4, 6, periodic=True), ordering="sorted"
        )
        assert sorted(map(tuple, map(sorted, csr.edges()))) == sorted(
            map(tuple, map(sorted, ref.edges()))
        )

    def test_random_regular_csr_matches_networkx(self):
        csr = random_regular_csr(26, 3, seed=5)
        ref = nx.random_regular_graph(3, 26, seed=5)
        assert sorted(map(tuple, map(sorted, csr.edges()))) == sorted(
            map(tuple, map(sorted, ref.edges()))
        )
