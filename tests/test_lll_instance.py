"""Unit tests for repro.lll.instance."""

import math

import pytest

from repro.artifacts import STORE
from repro.errors import ReproError, UnknownVariableError
from repro.generators import INSTANCE_FAMILIES, build_family_instance
from repro.lll import LLLInstance
from repro.planes import using_planes
from repro.probability import BadEvent, DiscreteVariable, PartialAssignment


def _coin(name):
    return DiscreteVariable.fair_coin(name)


@pytest.fixture
def triangle_instance():
    """Three events in a triangle: each pair shares one coin."""
    xy = _coin("xy")
    yz = _coin("yz")
    zx = _coin("zx")
    events = [
        BadEvent.all_equal("X", [xy, zx], target=1),
        BadEvent.all_equal("Y", [xy, yz], target=1),
        BadEvent.all_equal("Z", [yz, zx], target=1),
    ]
    return LLLInstance(events)


class TestConstruction:
    def test_requires_events(self):
        with pytest.raises(ReproError):
            LLLInstance([])

    def test_duplicate_event_names_rejected(self):
        coin = _coin("c")
        events = [
            BadEvent.all_equal("E", [coin], target=1),
            BadEvent.all_equal("E", [coin], target=0),
        ]
        with pytest.raises(ReproError):
            LLLInstance(events)

    def test_conflicting_variable_declarations_rejected(self):
        first = DiscreteVariable("c", (0, 1))
        second = DiscreteVariable("c", (0, 1), (0.2, 0.8))
        events = [
            BadEvent.all_equal("A", [first], target=1),
            BadEvent.all_equal("B", [second], target=1),
        ]
        with pytest.raises(ReproError):
            LLLInstance(events)

    def test_shared_variables_deduplicated(self, triangle_instance):
        assert triangle_instance.num_variables == 3
        assert triangle_instance.num_events == 3


class TestDerivedStructures:
    def test_dependency_graph_is_triangle(self, triangle_instance):
        graph = triangle_instance.dependency_graph
        assert set(graph.nodes()) == {"X", "Y", "Z"}
        assert graph.number_of_edges() == 3

    def test_variable_hypergraph(self, triangle_instance):
        hypergraph = triangle_instance.variable_hypergraph
        assert hypergraph.num_edges == 3
        assert hypergraph.edge("xy").nodes == frozenset({"X", "Y"})

    def test_rank(self, triangle_instance):
        assert triangle_instance.rank == 2

    def test_max_dependency_degree(self, triangle_instance):
        assert triangle_instance.max_dependency_degree == 2

    def test_events_of_variable(self, triangle_instance):
        names = {e.name for e in triangle_instance.events_of_variable("xy")}
        assert names == {"X", "Y"}
        with pytest.raises(UnknownVariableError):
            triangle_instance.events_of_variable("nope")

    def test_isolated_events_have_degree_zero(self):
        a = BadEvent.all_equal("A", [_coin("u")], target=1)
        b = BadEvent.all_equal("B", [_coin("v")], target=1)
        instance = LLLInstance([a, b])
        assert instance.max_dependency_degree == 0
        assert instance.rank == 1


class TestParameters:
    def test_max_event_probability(self, triangle_instance):
        assert triangle_instance.max_event_probability == pytest.approx(0.25)

    def test_event_probabilities(self, triangle_instance):
        probabilities = triangle_instance.event_probabilities()
        assert set(probabilities) == {"X", "Y", "Z"}
        assert all(p == pytest.approx(0.25) for p in probabilities.values())

    def test_summary_fields(self, triangle_instance):
        summary = triangle_instance.summary()
        assert summary["num_events"] == 3
        assert summary["rank"] == 2
        assert summary["d"] == 2
        assert summary["exponential_criterion"] == (0.25 * 4 < 1)


class TestVerification:
    def test_occurring_events(self, triangle_instance):
        assignment = PartialAssignment()
        for variable in triangle_instance.variables:
            assignment.fix(variable, 1)
        occurring = triangle_instance.occurring_events(assignment)
        assert {event.name for event in occurring} == {"X", "Y", "Z"}

    def test_avoiding_assignment(self, triangle_instance):
        assignment = PartialAssignment()
        for variable in triangle_instance.variables:
            assignment.fix(variable, 0)
        assert triangle_instance.avoids_all_events(assignment)

    def test_is_complete(self, triangle_instance):
        assignment = PartialAssignment()
        assert not triangle_instance.is_complete(assignment)
        for variable in triangle_instance.variables:
            assignment.fix(variable, 0)
        assert triangle_instance.is_complete(assignment)

    def test_clear_caches(self, triangle_instance):
        triangle_instance.max_event_probability
        triangle_instance.clear_caches()
        assert all(e.cache_size == 0 for e in triangle_instance.events)

    def test_lookup_helpers(self, triangle_instance):
        assert triangle_instance.event("X").name == "X"
        assert triangle_instance.variable("xy").name == "xy"
        with pytest.raises(ReproError):
            triangle_instance.event("missing")


class TestParametersAcrossPlanes:
    """``d`` from CSR degrees and probabilities computed once per shape
    equal the reference plane's networkx degree and the per-event
    enumeration, on every generator family."""

    @pytest.mark.parametrize("family", INSTANCE_FAMILIES)
    @pytest.mark.parametrize("artifacts", ["on", "off"])
    def test_degree_and_probabilities_agree(self, family, artifacts):
        def build():
            alphabet = 5 if family == "triples" else 3
            return build_family_instance(family, 10, alphabet=alphabet, seed=2)

        graph = build().dependency_graph
        expected_d = max(degree for _, degree in graph.degree())
        expected_p = {event.name: event.probability() for event in build().events}
        for graph_plane in ("vectorized", "reference"):
            with using_planes(graph=graph_plane, artifacts=artifacts):
                STORE.clear()
                instance = build()
                assert instance.max_dependency_degree == expected_d
                assert instance.event_probabilities() == expected_p
