"""Unit tests for the message-level LOCAL fixing protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CriterionViolationError, SimulationError
from repro.core import (
    LocalFixingProtocol,
    solve,
    solve_distributed,
    solve_distributed_local,
)
from repro.applications import (
    hypergraph_sinkless_instance,
    orientations_from_assignment,
    sinkless_orientation_instance,
)
from repro.applications.hypergraph_sinkless import satisfies_requirement
from repro.faults import FaultPlan
from repro.generators import (
    INSTANCE_FAMILIES,
    all_zero_edge_instance,
    all_zero_triple_instance,
    build_family_instance,
    cycle_graph,
    cyclic_triples,
    partition_rounds_triples,
    random_regular_graph,
)
from repro.lll import LLLInstance, verify_solution
from repro.probability import BadEvent, DiscreteVariable
from repro.runtime import SerialScheduler, plan_for_instance

#: Message drops and duplicates the simulator's reliable delivery must
#: absorb without changing the protocol's answer.
MESSAGE_FAULTS = FaultPlan(seed=7, drop_rate=0.1, duplicate_rate=0.05)


class TestProtocolSolves:
    def test_rank3_cyclic(self):
        instance = all_zero_triple_instance(15, cyclic_triples(15), 5)
        result = solve_distributed_local(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_rank3_partition(self):
        triples = partition_rounds_triples(18, 2, seed=3)
        instance = all_zero_triple_instance(18, triples, 5)
        result = solve_distributed_local(instance, require_criterion="local")
        assert verify_solution(instance, result.assignment).ok

    def test_rank2_regular(self):
        instance = all_zero_edge_instance(
            random_regular_graph(20, 4, seed=1), 3
        )
        result = solve_distributed_local(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_rank2_cycle(self):
        instance = all_zero_edge_instance(cycle_graph(16), 3)
        result = solve_distributed_local(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_application_end_to_end(self):
        triples = cyclic_triples(12)
        instance = hypergraph_sinkless_instance(12, triples)
        result = solve_distributed_local(instance)
        orientations = orientations_from_assignment(
            triples, result.assignment
        )
        assert satisfies_requirement(12, triples, orientations)

    def test_rejects_at_threshold(self):
        instance = sinkless_orientation_instance(
            random_regular_graph(12, 3, seed=2)
        )
        with pytest.raises(CriterionViolationError):
            solve_distributed_local(instance)


def rank1_instance():
    """Two events with private coins: one rank-1 class, no coloring."""
    events = []
    for label in ("A", "B"):
        coins = [DiscreteVariable.fair_coin(f"{label}{i}") for i in range(3)]
        events.append(BadEvent.all_equal(label, coins, target=1))
    return LLLInstance(events)


class TestRoundAccounting:
    def test_two_rounds_per_class(self):
        instance = all_zero_triple_instance(12, cyclic_triples(12), 5)
        result = solve_distributed_local(instance)
        assert result.schedule_rounds == 2 * result.palette

    def test_rounds_needed_property(self):
        protocol = LocalFixingProtocol(num_classes=7)
        assert protocol.rounds_needed == 14

    def test_palette_validation(self):
        with pytest.raises(SimulationError):
            LocalFixingProtocol(num_classes=0)

    def test_extra_preround_charged(self):
        instance = all_zero_edge_instance(cycle_graph(12), 3)
        high_level = solve_distributed(instance)
        protocol = solve_distributed_local(instance)
        # Same schedule, plus the 1-hop pre-exchange of event descriptions.
        assert protocol.coloring_rounds == high_level.coloring_rounds + 1

    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_rank2_palette_is_the_edge_palette(self, degree):
        instance = all_zero_edge_instance(
            random_regular_graph(24, degree, seed=1), 4
        )
        result = solve_distributed_local(instance)
        plan = plan_for_instance(instance)
        # Corollary 1.2's 2d - 1 edge colors, not the 2-hop palette.
        assert result.palette == plan.palette <= 2 * degree - 1
        assert result.schedule_rounds == 2 * plan.num_classes

    @pytest.mark.parametrize(
        "make_instance",
        [
            pytest.param(
                lambda: all_zero_triple_instance(15, cyclic_triples(15), 5),
                id="rank3-cyclic",
            ),
            pytest.param(
                lambda: all_zero_edge_instance(
                    random_regular_graph(20, 4, seed=1), 3
                ),
                id="rank2-4-regular",
            ),
        ],
    )
    def test_plan_local_rounds_is_the_protocol_count(self, make_instance):
        plan = plan_for_instance(make_instance())
        result = solve_distributed_local(make_instance())
        protocol = LocalFixingProtocol(plan.num_classes)
        assert plan.local_rounds == (
            result.coloring_rounds + protocol.rounds_needed
        )
        assert plan.local_rounds == result.total_rounds

    @pytest.mark.parametrize(
        "make_instance",
        [
            pytest.param(rank1_instance, id="rank1"),
            pytest.param(
                lambda: all_zero_triple_instance(12, cyclic_triples(12), 5),
                id="rank3-cyclic",
            ),
        ],
    )
    def test_two_rounds_per_plan_class(self, make_instance):
        result = solve_distributed_local(make_instance())
        plan = plan_for_instance(make_instance())
        assert result.schedule_rounds == 2 * plan.num_classes
        assert result.palette == plan.palette


class TestConsistencyWithScheduler:
    def test_both_produce_valid_solutions(self):
        triples = cyclic_triples(12)
        scheduler_instance = all_zero_triple_instance(12, triples, 5)
        protocol_instance = all_zero_triple_instance(12, triples, 5)
        scheduler = solve_distributed(scheduler_instance)
        protocol = solve_distributed_local(protocol_instance)
        assert verify_solution(scheduler_instance, scheduler.assignment).ok
        assert verify_solution(protocol_instance, protocol.assignment).ok

    def test_certified_bounds_valid(self):
        instance = all_zero_triple_instance(12, cyclic_triples(12), 5)
        result = solve_distributed_local(instance)
        assert result.fixing.max_certified_bound < 1.0
        # The ledger-derived bound really dominates the conditional
        # probability of every event under the final assignment (= 0).
        for event in instance.events:
            assert event.probability(result.assignment) == 0.0

    def test_step_records_cover_all_variables(self):
        instance = all_zero_triple_instance(12, cyclic_triples(12), 5)
        result = solve_distributed_local(instance)
        fixed_variables = {step.variable for step in result.fixing.steps}
        assert fixed_variables == {v.name for v in instance.variables}

    def test_all_steps_respect_budget(self):
        instance = all_zero_triple_instance(15, cyclic_triples(15), 5)
        result = solve_distributed_local(instance)
        for step in result.fixing.steps:
            assert step.slack >= -1e-9
            assert step.num_good_values >= 1


def assert_equals_serial_oracle(make_instance, fault_plan=None):
    """The protocol's transcript, bounds and assignment are the serial
    oracle's, record for record."""
    local = solve_distributed_local(make_instance(), fault_plan=fault_plan)
    oracle = solve(make_instance(), scheduler=SerialScheduler())
    assert local.fixing.steps == oracle.steps
    assert local.fixing.certified_bounds == oracle.certified_bounds
    assert dict(local.assignment.items()) == dict(oracle.assignment.items())


class TestTranscriptEqualsOracle:
    """The protocol's trace is the serial oracle's, record for record:
    events in bookkeeping order, steps in plan order."""

    @pytest.mark.parametrize(
        "make_instance",
        [
            pytest.param(
                lambda: all_zero_triple_instance(30, cyclic_triples(30), 4),
                id="cyclic",
            ),
            pytest.param(
                lambda: all_zero_triple_instance(
                    18, partition_rounds_triples(18, 2, seed=3), 5
                ),
                id="partition",
            ),
        ],
    )
    def test_rank3_steps_equal_serial_oracle(self, make_instance):
        assert_equals_serial_oracle(make_instance)

    @pytest.mark.parametrize(
        "make_instance",
        [
            pytest.param(
                lambda: all_zero_edge_instance(cycle_graph(16), 3),
                id="cycle",
            ),
            pytest.param(
                lambda: all_zero_edge_instance(
                    random_regular_graph(40, 4, seed=1), 3
                ),
                id="regular",
            ),
        ],
    )
    def test_rank2_steps_equal_serial_oracle(self, make_instance):
        assert_equals_serial_oracle(make_instance)

    @given(
        family=st.sampled_from(INSTANCE_FAMILIES),
        n=st.integers(9, 30),
        seed=st.integers(0, 2),
        alphabet=st.integers(3, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_family_equals_serial_oracle(
        self, family, n, seed, alphabet
    ):
        def make_instance():
            return build_family_instance(
                family, n, alphabet=alphabet, seed=seed
            )

        assert_equals_serial_oracle(make_instance)
        assert_equals_serial_oracle(make_instance, MESSAGE_FAULTS)
