"""Unit tests for repro.lll.verify."""

import pytest

from repro.errors import CriterionViolationError, RankViolationError
from repro.lll import check_preconditions, verify_solution
from repro.probability import PartialAssignment
from repro.generators import (
    all_zero_edge_instance,
    build_family_instance,
    cycle_graph,
)
from repro.lll.io import instance_from_dict, instance_to_dict


@pytest.fixture
def instance():
    return all_zero_edge_instance(cycle_graph(6), 3)


class TestVerifySolution:
    def test_incomplete_assignment(self, instance):
        result = verify_solution(instance, PartialAssignment())
        assert not result.ok
        assert not result.complete
        assert len(result.unfixed) == instance.num_variables

    def test_valid_solution(self, instance):
        assignment = PartialAssignment()
        for variable in instance.variables:
            assignment.fix(variable, 1)
        result = verify_solution(instance, assignment)
        assert result.ok
        assert bool(result)
        assert result.occurring == ()

    def test_bad_solution_lists_events(self, instance):
        assignment = PartialAssignment()
        for variable in instance.variables:
            assignment.fix(variable, 0)
        result = verify_solution(instance, assignment)
        assert result.complete
        assert not result.ok
        assert len(result.occurring) == instance.num_events


class TestUnhashableValues:
    """A value that cannot be hashed (say a JSON list) is in no value
    list: it is reported ``invalid``, never raised as a ``TypeError``."""

    def test_list_values_are_invalid(self):
        instance = build_family_instance("cycle", 6)
        assignment = PartialAssignment(
            {name: [1] for name in instance.variable_names}
        )
        result = verify_solution(instance, assignment)
        assert result.complete
        assert not result.ok
        assert result.invalid == instance.variable_names

    def test_one_list_value_among_valid_ones(self):
        instance = build_family_instance("cycle", 6)
        names = instance.variable_names
        values = dict.fromkeys(names, 1)
        values[names[0]] = [1]
        result = verify_solution(instance, PartialAssignment(values))
        assert not result.ok
        assert result.invalid == (names[0],)
        assert result.occurring == ()

    def test_tabulated_events_holding_a_list_value_do_not_occur(self):
        # Loaded events test membership in their bad-outcome set, which
        # cannot hash a list.
        instance = instance_from_dict(
            instance_to_dict(build_family_instance("cycle", 6))
        )
        names = instance.variable_names
        values = dict.fromkeys(names, 0)
        values[names[0]] = [0]
        result = verify_solution(instance, PartialAssignment(values))
        assert result.invalid == (names[0],)
        untouched = [
            event.name for event in instance.events
            if names[0] not in event.scope_names
        ]
        assert list(result.occurring) == untouched


class TestCheckPreconditions:
    def test_report_fields(self, instance):
        report = check_preconditions(instance, max_rank=2)
        assert report.p == pytest.approx(1 / 9)
        assert report.d == 2
        assert report.rank == 2
        assert report.threshold == pytest.approx(0.25)
        assert report.slack == pytest.approx(0.25 * 9)

    def test_rank_violation(self, instance):
        with pytest.raises(RankViolationError):
            check_preconditions(instance, max_rank=1)

    def test_criterion_violation(self):
        # Alphabet 2 on a cycle: p = 1/4 = 2^-d exactly -> strict check fails.
        at_threshold = all_zero_edge_instance(cycle_graph(6), 2)
        with pytest.raises(CriterionViolationError):
            check_preconditions(at_threshold)

    def test_criterion_check_can_be_disabled(self):
        at_threshold = all_zero_edge_instance(cycle_graph(6), 2)
        report = check_preconditions(at_threshold, require_criterion=False)
        assert report.p == pytest.approx(0.25)

    def test_zero_probability_slack_is_infinite(self):
        from repro.lll import LLLInstance
        from repro.probability import BadEvent, DiscreteVariable

        coin = DiscreteVariable.fair_coin("c")
        impossible = BadEvent("E", [coin], lambda values: False)
        instance = LLLInstance([impossible])
        report = check_preconditions(instance)
        assert report.slack == float("inf")
