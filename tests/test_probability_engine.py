"""Differential tests: the compiled kernel engine vs the naive oracle.

The compiled engine (``repro.probability.engine``) answers the same
queries as the naive enumerator — ``probability``, ``conditional_increase``
and the batch ``conditional_increases`` — from a truth table compiled
once per event.  These tests hold the two engines together on randomly
generated small events (rank <= 3 scopes, mixed supports, partial
assignments) to within 1e-12, plus unit tests for the engine switch, the
kernel data structure, the mass-tolerance check and the bounded cache.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    EnumerationLimitError,
    InvalidAssignmentError,
    ProbabilityMassError,
    ReproError,
)
from repro.probability import (
    BadEvent,
    DiscreteVariable,
    PartialAssignment,
)
from repro.planes import planes, set_planes, using_planes
from repro.probability.engine import (
    EventKernel,
    checked_mass_sum,
    publish_stats,
    reset_stats,
    stats,
)

PARITY_TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# Strategies: random small events with mixed supports
# ----------------------------------------------------------------------
def _distributions(num_values):
    """Probability vectors over ``num_values`` values (may contain 0)."""
    return st.lists(
        st.integers(min_value=0, max_value=10),
        min_size=num_values,
        max_size=num_values,
    ).filter(lambda weights: sum(weights) > 0).map(
        lambda weights: tuple(w / sum(weights) for w in weights)
    )


@st.composite
def random_events(draw):
    """A random event of rank <= 3 plus a random partial assignment.

    Returns ``(make_event, variables, assignment, free)`` where
    ``make_event()`` builds a fresh event over the shared variables (the
    predicate is a tabulated random bad set, so both engines see the
    same function), ``assignment`` fixes a random subset of the scope
    (including out-of-scope names, which the event must ignore), and
    ``free`` lists the unfixed scope variables.
    """
    num_variables = draw(st.integers(min_value=1, max_value=3))
    variables = []
    for position in range(num_variables):
        num_values = draw(st.integers(min_value=2, max_value=4))
        probabilities = draw(_distributions(num_values))
        variables.append(
            DiscreteVariable(
                f"x{position}", tuple(range(num_values)), probabilities
            )
        )
    outcomes = []
    for values in _all_outcomes(variables):
        if draw(st.booleans()):
            outcomes.append(values)
    bad = frozenset(outcomes)
    order = tuple(v.name for v in variables)

    def make_event():
        return BadEvent(
            "event",
            variables,
            lambda values: tuple(values[name] for name in order) in bad,
        )

    assignment = PartialAssignment()
    free = []
    for variable in variables:
        if draw(st.booleans()):
            assignment.fix(variable, draw(st.sampled_from(variable.values)))
        else:
            free.append(variable)
    if draw(st.booleans()):
        assignment.fix(DiscreteVariable("unrelated", (0, 1)), 0)
    return make_event, variables, assignment, free


def _all_outcomes(variables):
    outcomes = [()]
    for variable in variables:
        outcomes = [
            prefix + (value,)
            for prefix in outcomes
            for value in variable.values
        ]
    return outcomes


# ----------------------------------------------------------------------
# Engine parity (the differential suite)
# ----------------------------------------------------------------------
class TestEngineParity:
    @settings(max_examples=200, deadline=None)
    @given(random_events())
    def test_probability_agrees(self, case):
        make_event, _variables, assignment, _free = case
        with using_planes(engine="naive"):
            expected = make_event().probability(assignment)
        with using_planes(engine="compiled"):
            event = make_event()
            actual = event.probability(assignment)
            assert event.kernel_compiled
        assert actual == pytest.approx(expected, abs=PARITY_TOLERANCE)

    @settings(max_examples=200, deadline=None)
    @given(random_events())
    def test_conditional_increase_agrees(self, case):
        make_event, _variables, assignment, free = case
        if not free:
            return
        variable = free[0]
        for value in variable.values:
            with using_planes(engine="naive"):
                expected = make_event().conditional_increase(
                    assignment, variable, value
                )
            with using_planes(engine="compiled"):
                actual = make_event().conditional_increase(
                    assignment, variable, value
                )
            assert actual == pytest.approx(expected, abs=PARITY_TOLERANCE)

    @settings(max_examples=200, deadline=None)
    @given(random_events())
    def test_batch_agrees_with_scalar_queries(self, case):
        make_event, _variables, assignment, free = case
        if not free:
            return
        variable = free[0]
        with using_planes(engine="naive"):
            naive_batch = make_event().conditional_increases(
                assignment, variable
            )
        with using_planes(engine="compiled"):
            compiled_batch = make_event().conditional_increases(
                assignment, variable
            )
            scalar = {
                value: make_event().conditional_increase(
                    assignment, variable, value
                )
                for value, _prob in variable.support_items()
            }
        assert set(naive_batch) == set(compiled_batch) == set(scalar)
        for value, expected in naive_batch.items():
            assert compiled_batch[value] == pytest.approx(
                expected, abs=PARITY_TOLERANCE
            )
            assert scalar[value] == pytest.approx(
                expected, abs=PARITY_TOLERANCE
            )

    @settings(max_examples=100, deadline=None)
    @given(random_events())
    def test_occurs_agrees_on_full_assignments(self, case):
        make_event, variables, _assignment, _free = case
        full = PartialAssignment()
        for variable in variables:
            full.fix(variable, variable.values[0])
        with using_planes(engine="naive"):
            expected = make_event().occurs(full)
        with using_planes(engine="compiled"):
            assert make_event().occurs(full) == expected

    @settings(max_examples=100, deadline=None)
    @given(random_events())
    def test_bad_outcomes_identical(self, case):
        make_event, _variables, _assignment, _free = case
        with using_planes(engine="naive"):
            naive_outcomes = make_event().bad_outcomes()
        with using_planes(engine="compiled"):
            compiled_outcomes = make_event().bad_outcomes()
        assert naive_outcomes == compiled_outcomes


# ----------------------------------------------------------------------
# Engine switching
# ----------------------------------------------------------------------
class TestEngineSwitch:
    @pytest.mark.skipif(
        os.environ.get("REPRO_ENGINE") not in (None, "compiled"),
        reason="suite was launched with a non-default engine override",
    )
    def test_default_mode_is_compiled(self):
        assert planes().engine == "compiled"

    def test_set_engine_mode_returns_previous(self):
        previous = set_planes(engine="naive")
        try:
            assert planes().engine == "naive"
        finally:
            set_planes(engine=previous.engine)
        assert planes() == previous

    def test_using_engine_restores_mode(self):
        before = planes()
        with using_planes(engine="naive"):
            assert planes().engine == "naive"
        assert planes() == before

    def test_invalid_mode_rejected(self):
        with pytest.raises(ReproError):
            set_planes(engine="quantum")

    def test_naive_mode_never_compiles(self):
        variables = [DiscreteVariable.fair_coin("c")]
        with using_planes(engine="naive"):
            event = BadEvent("e", variables, lambda values: values["c"] == 1)
            event.probability()
            assert not event.kernel_compiled

    def test_oversized_scope_stays_naive_and_raises(self):
        variables = [DiscreteVariable.fair_coin(f"c{i}") for i in range(30)]
        event = BadEvent(
            "huge",
            variables,
            lambda values: True,
            enumeration_limit=1024,
        )
        with pytest.raises(EnumerationLimitError) as excinfo:
            event.probability()
        assert not event.kernel_compiled
        # Satellite: the error names the scope and fires before any work.
        assert "c0" in str(excinfo.value)


# ----------------------------------------------------------------------
# The kernel data structure
# ----------------------------------------------------------------------
class TestEventKernel:
    def _variables(self):
        return [
            DiscreteVariable("a", (0, 1, 2)),
            DiscreteVariable("b", (0, 1)),
        ]

    def test_strides_are_mixed_radix(self):
        kernel = EventKernel.compile(
            self._variables(), lambda values: False
        )
        assert kernel.strides == (2, 1)
        assert kernel.num_outcomes == 6
        assert kernel.num_bad == 0

    def test_encode_and_occurs(self):
        kernel = EventKernel.compile(
            self._variables(),
            lambda values: values["a"] == 2 and values["b"] == 1,
        )
        assert kernel.num_bad == 1
        assert kernel.encode((2, 1)) == 5
        assert kernel.occurs((2, 1))
        assert not kernel.occurs((0, 0))

    def test_from_outcomes_drops_unknown_values(self):
        kernel = EventKernel.from_outcomes(
            self._variables(), [(2, 1), (9, 0), (0, 1, 1)]
        )
        assert kernel.bad_value_tuples() == [(2, 1)]

    def test_probability_conditions_on_pins(self):
        kernel = EventKernel.compile(
            self._variables(), lambda values: values["b"] == 1
        )
        assert kernel.probability([-1, -1], "t") == pytest.approx(0.5)
        assert kernel.probability([-1, 1], "t") == pytest.approx(1.0)
        assert kernel.probability([-1, 0], "t") == 0.0

    def test_conditional_masses_matches_pinned_probabilities(self):
        kernel = EventKernel.compile(
            self._variables(),
            lambda values: values["a"] != values["b"],
        )
        masses = kernel.conditional_masses([-1, -1], 0, "t")
        for index in range(3):
            assert masses[index] == pytest.approx(
                kernel.probability([index, -1], "t")
            )


# ----------------------------------------------------------------------
# Mass tolerance (satellite: no silent clamping)
# ----------------------------------------------------------------------
class TestMassTolerance:
    def test_dust_is_clamped(self):
        assert checked_mass_sum([0.5, 0.5, 1e-16], "t") == 1.0

    def test_excess_mass_raises(self):
        with pytest.raises(ProbabilityMassError):
            checked_mass_sum([0.7, 0.7], "broken distribution")

    def test_event_with_bogus_weights_raises(self):
        # Corrupt a distribution past the constructor's validation: both
        # engines must surface the broken mass rather than clamp it.
        variable = DiscreteVariable("v", (0, 1), (0.5, 0.5))
        variable._probabilities = (0.9, 0.9)  # noqa: SLF001 - on purpose
        with using_planes(engine="naive"):
            with pytest.raises(ProbabilityMassError):
                BadEvent("e1", [variable], lambda values: True).probability()
        with using_planes(engine="compiled"):
            with pytest.raises(ProbabilityMassError):
                BadEvent("e2", [variable], lambda values: True).probability()


# ----------------------------------------------------------------------
# Bounded cache (satellite)
# ----------------------------------------------------------------------
class TestBoundedCache:
    def test_cache_evicts_at_limit(self):
        variables = [DiscreteVariable("a", tuple(range(10)))]
        event = BadEvent(
            "e", variables, lambda values: values["a"] == 0, cache_limit=3
        )
        for value in range(6):
            event.probability(
                PartialAssignment().fix(variables[0], value)
            )
        info = event.cache_info()
        assert event.cache_size == 3
        assert info["limit"] == 3
        assert info["evictions"] == 3
        assert info["misses"] == 6

    def test_cache_disabled_with_zero_limit(self):
        variables = [DiscreteVariable.fair_coin("c")]
        event = BadEvent(
            "e", variables, lambda values: values["c"] == 1, cache_limit=0
        )
        event.probability()
        event.probability()
        assert event.cache_size == 0

    def test_batch_populates_cache_for_followup_queries(self):
        variables = [
            DiscreteVariable.fair_coin("c0"),
            DiscreteVariable.fair_coin("c1"),
        ]
        event = BadEvent(
            "e",
            variables,
            lambda values: values["c0"] == 1 and values["c1"] == 1,
        )
        assignment = PartialAssignment()
        event.conditional_increases(assignment, variables[0])
        hits_before = event.cache_info()["hits"]
        # The fixer's follow-up query after committing a value.
        event.probability(assignment.fixed(variables[0], 1))
        assert event.cache_info()["hits"] == hits_before + 1

    def test_batch_on_fixed_variable_rejected(self):
        variables = [DiscreteVariable.fair_coin("c")]
        event = BadEvent("e", variables, lambda values: values["c"] == 1)
        assignment = PartialAssignment().fix(variables[0], 1)
        with pytest.raises(InvalidAssignmentError):
            event.conditional_increases(assignment, variables[0])


# ----------------------------------------------------------------------
# Engine statistics
# ----------------------------------------------------------------------
class TestEngineStats:
    def test_counters_accumulate_and_reset(self):
        reset_stats()
        variables = [DiscreteVariable.fair_coin("c")]
        with using_planes(engine="compiled"):
            event = BadEvent("e", variables, lambda values: values["c"] == 1)
            event.probability()
        snapshot = stats()
        assert snapshot["kernel_compiles"] == 1
        assert snapshot["kernel_queries"] == 1
        reset_stats()
        assert stats()["kernel_compiles"] == 0

    def test_publish_stats_reports_deltas(self):
        class FakeRecorder:
            def __init__(self):
                self.counts = {}

            def count(self, component, name, delta=1):
                key = (component, name)
                self.counts[key] = self.counts.get(key, 0) + delta

        reset_stats()
        variables = [DiscreteVariable.fair_coin("c")]
        with using_planes(engine="compiled"):
            event = BadEvent("e", variables, lambda values: values["c"] == 1)
            event.probability()
        recorder = FakeRecorder()
        first = publish_stats(recorder)
        assert first["kernel_compiles"] == 1
        # Publishing again without new work adds nothing.
        assert publish_stats(recorder) == {}
        assert recorder.counts[("engine", "kernel_compiles")] == 1
