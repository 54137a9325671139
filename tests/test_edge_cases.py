"""Edge cases and failure injection across the library.

Degenerate structures (single-value variables, impossible events,
disconnected graphs), numerical stress (extreme skew, boundary triples),
and misuse detection.
"""

import math
import random

import pytest

from repro.core import (
    Rank2Fixer,
    Rank3Fixer,
    solve,
    solve_distributed,
    solve_distributed_local,
    solve_rank2,
    solve_rank3,
)
from repro.errors import (
    CriterionViolationError,
    NoGoodValueError,
    NotRepresentableError,
)
from repro.geometry import (
    boundary_surface,
    decompose_triple,
    is_representable_triple,
)
from repro.lll import LLLInstance, verify_solution
from repro.probability import BadEvent, DiscreteVariable, PartialAssignment


class TestDegenerateVariables:
    def test_single_value_variable(self):
        """A constant 'random' variable: Inc is always 1."""
        constant = DiscreteVariable("c", (0,))
        coins = [DiscreteVariable.fair_coin(f"x{i}") for i in range(3)]
        event = BadEvent.all_equal("E", coins + [constant], target=1)
        # Pr[E] = 0: the constant can never equal 1.
        instance = LLLInstance([event])
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_constant_variable_that_matters(self):
        constant = DiscreteVariable("c", (0,))
        coins = [DiscreteVariable.fair_coin(f"x{i}") for i in range(4)]

        def predicate(values):
            return values["c"] == 0 and all(
                values[f"x{i}"] == 1 for i in range(4)
            )

        event = BadEvent("E", coins + [constant], predicate)
        instance = LLLInstance([event])
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_impossible_event_everywhere(self):
        coins = [DiscreteVariable.fair_coin(f"x{i}") for i in range(2)]
        impossible = BadEvent("E", coins, lambda values: False)
        instance = LLLInstance([impossible])
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_certain_event_rejected_by_criterion(self):
        coin = DiscreteVariable.fair_coin("x")
        certain = BadEvent("E", [coin], lambda values: True)
        instance = LLLInstance([certain])
        with pytest.raises(CriterionViolationError):
            solve(instance)

    def test_certain_event_certificate_signals_failure(self):
        """Without the criterion the fixer completes, but its certificate
        (a bound >= 1) correctly reports that nothing is guaranteed."""
        coin = DiscreteVariable.fair_coin("x")
        certain = BadEvent("E", [coin], lambda values: True)
        instance = LLLInstance([certain])
        result = solve(instance, require_criterion=False)
        assert result.max_certified_bound >= 1.0
        assert not verify_solution(instance, result.assignment).ok


#: The three solve entry points, for instances every one of them takes.
ENTRY_POINTS = [solve, solve_distributed, solve_distributed_local]


class TestVariableFreeInstances:
    """Events without variables: rank 0, degree 0, nothing to fix."""

    def test_rank_is_zero(self):
        instance = LLLInstance([BadEvent.all_equal("A", [], target=1)])
        assert instance.rank == 0

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_certain_event_is_a_typed_criterion_violation(self, entry):
        # The empty outcome is all-equal, so p = 1 and p < 2^-0 fails.
        instance = LLLInstance([BadEvent.all_equal("A", [], target=1)])
        with pytest.raises(CriterionViolationError):
            entry(instance)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_impossible_events_solve_in_zero_steps(self, entry):
        instance = LLLInstance([
            BadEvent.from_bad_outcomes(name, [], []) for name in "AB"
        ])
        result = entry(instance)
        fixing = getattr(result, "fixing", result)
        assert fixing.steps == ()
        assert fixing.certified_bounds == {"A": 0.0, "B": 0.0}
        assert verify_solution(instance, fixing.assignment).ok


class TestDisconnectedInstances:
    def test_disconnected_dependency_graph(self):
        from repro.generators import all_zero_edge_instance, cycle_graph
        import networkx as nx

        graph = nx.disjoint_union(cycle_graph(6), cycle_graph(8))
        instance = all_zero_edge_instance(graph, 3)
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_disconnected_distributed(self):
        from repro.generators import all_zero_edge_instance, cycle_graph
        import networkx as nx

        graph = nx.disjoint_union(cycle_graph(6), cycle_graph(6))
        instance = all_zero_edge_instance(graph, 3)
        result = solve_distributed(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_singleton_event_instance(self):
        coin = DiscreteVariable("x", (0, 1, 2, 3))
        event = BadEvent.all_equal("E", [coin], target=0)
        instance = LLLInstance([event])
        result = solve_distributed(instance)
        assert verify_solution(instance, result.assignment).ok


class TestNumericalStress:
    def test_extreme_skew_distributions(self):
        """Zero-probability mass 1e-6: enormous Inc ratios on the rare path."""
        probabilities = (1e-6, 0.5 - 5e-7, 0.5 - 5e-7)
        from repro.generators import all_zero_edge_instance, cycle_graph

        instance = all_zero_edge_instance(
            cycle_graph(8), 3, probabilities=probabilities
        )
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_near_threshold_rank2(self):
        """p within 2% of 2^-d must still be handled cleanly."""
        # Cycle (d = 2): threshold 1/4. Use p0 = 0.495 per edge variable:
        # p = 0.495^2 = 0.245 < 0.25.
        probabilities = (0.495, 0.505)
        from repro.generators import all_zero_edge_instance, cycle_graph

        instance = all_zero_edge_instance(
            cycle_graph(10), 2, probabilities=probabilities
        )
        result = solve(instance, validate_invariant=True)
        assert verify_solution(instance, result.assignment).ok

    def test_near_threshold_rank3(self):
        """Rank 3 close to the threshold, invariant validated throughout."""
        from repro.generators import all_zero_triple_instance, cyclic_triples

        # d = 4, threshold 1/16 = 0.0625; p0 = 0.39 gives p = 0.0593.
        probabilities = (0.39, 0.305, 0.305)
        instance = all_zero_triple_instance(
            12, cyclic_triples(12), 3, probabilities=probabilities
        )
        result = solve(instance, validate_invariant=True)
        assert verify_solution(instance, result.assignment).ok

    def test_boundary_triples_decompose_repeatedly(self):
        rng = random.Random(0)
        for _ in range(100):
            a = rng.uniform(0, 4)
            b = 4.0 - a  # exactly on the a + b = 4 boundary: f = 0
            decomposition = decompose_triple(a, b, 0.0)
            assert decomposition.max_violation(a, b, 0.0) < 1e-7

    def test_tiny_triples(self):
        assert is_representable_triple(1e-300, 1e-300, 1e-300)
        decomposition = decompose_triple(1e-300, 1e-300, 1e-300)
        assert decomposition.max_violation(1e-300, 1e-300, 1e-300) < 1e-7

    def test_non_representable_rejection_is_clean(self):
        with pytest.raises(NotRepresentableError):
            decompose_triple(3.9, 3.9, 3.9)


class TestThresholdBoundaryBehaviour:
    def test_exactly_at_threshold_certificate_never_lies(self):
        """At p = 2^-d the rank-2 process always completes (the averaging
        argument never gets stuck), but it loses its guarantee — and the
        certificate must say so: whenever a bad event survives, the
        certified bound is >= 1.  Certified bound < 1 implies success."""
        from repro.applications import sinkless_orientation_instance
        from repro.generators import random_regular_graph

        at_threshold_failures = 0
        for seed in range(5):
            graph = random_regular_graph(10, 3, seed=seed)
            instance = sinkless_orientation_instance(graph)
            fixer = Rank2Fixer(instance, require_criterion=False)
            result = fixer.run()
            ok = verify_solution(instance, result.assignment).ok
            if not ok:
                at_threshold_failures += 1
                assert result.max_certified_bound >= 1.0 - 1e-9
            if result.max_certified_bound < 1.0 - 1e-9:
                assert ok
        # The hardness is real: at the threshold the deterministic
        # process does fail on typical instances.
        assert at_threshold_failures > 0

    def test_strictly_below_never_fails(self):
        from repro.generators import all_zero_edge_instance, random_regular_graph

        for seed in range(5):
            graph = random_regular_graph(12, 3, seed=seed)
            instance = all_zero_edge_instance(graph, 3)
            result = solve_rank2(instance)
            assert verify_solution(instance, result.assignment).ok


class TestLargeAlphabet:
    def test_many_valued_variables(self):
        from repro.generators import all_zero_edge_instance, cycle_graph

        instance = all_zero_edge_instance(cycle_graph(6), 30)
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_hash_variety_in_names(self):
        """Variable and event names of mixed types coexist."""
        coin_a = DiscreteVariable(("tuple", 1), (0, 1))
        coin_b = DiscreteVariable("string", (0, 1))
        coin_c = DiscreteVariable(42, (0, 1))

        def predicate(values):
            return all(v == 1 for v in values.values())

        event1 = BadEvent("E1", [coin_a, coin_b, coin_c], predicate)
        event2 = BadEvent((2, "E"), [coin_a], lambda v: v[("tuple", 1)] == 1 and False)
        instance = LLLInstance([event1, event2])
        result = solve(instance, require_criterion="local")
        assert verify_solution(instance, result.assignment).ok
