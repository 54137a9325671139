"""The columnar ``verify_solution`` against per-event scalar ``occurs``.

``verify_solution`` evaluates occurrence in one array pass per distinct
event shape.  The reference here is the definition it replaces: every
event's own ``BadEvent.occurs``, one call per event, plus the value-list
check behind ``VerificationResult.invalid``.  Both must agree field for
field and in order, on every generator family, for valid assignments and
for each way an assignment can be wrong, under either engine and with
the artifact plane on or off.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.artifacts import STORE
from repro.artifacts.fingerprint import event_shape_key
from repro.core.sequential import solve
from repro.generators import (
    INSTANCE_FAMILIES,
    all_zero_edge_instance,
    build_family_instance,
    random_regular_graph,
)
from repro.lll import LLLInstance, verify_solution
from repro.lll.verify import SCALAR_REASONS, VerificationResult
from repro.obs import recording
from repro.planes import using_planes
from repro.probability import BadEvent, DiscreteVariable, PartialAssignment
from repro.probability.engine import STATS

#: A value no generator family uses.
OUTSIDE = 99

KINDS = ("valid", "bad_row", "out_of_support", "unfixed", "extra_name")


def scalar_verify(instance, assignment) -> VerificationResult:
    """The per-event definition: one ``occurs`` call per event."""
    values = assignment.as_dict()
    unfixed = tuple(
        name for name in instance.variable_names if name not in values
    )
    invalid = tuple(
        variable.name
        for variable in instance.variables
        if variable.name in values
        and values[variable.name] not in variable.values
    )
    if unfixed:
        return VerificationResult(False, (), unfixed, invalid)
    occurring = tuple(
        event.name for event in instance.events if event.occurs(assignment)
    )
    return VerificationResult(True, occurring, (), invalid)


def family_instance(family, n, seed):
    alphabet = 5 if family == "triples" else 3
    return build_family_instance(
        family, n, alphabet=alphabet, degree=3, seed=seed
    )


def mutated(instance, solution, kind, pick):
    """The solved assignment, broken in the way ``kind`` names."""
    values = dict(solution.items())
    variables = instance.variables
    variable = variables[pick % len(variables)]
    if kind == "bad_row":
        event = instance.events[pick % len(instance.events)]
        row = sorted(event.bad_outcomes_hint, key=repr)[0]
        values.update(zip(event.scope_names, row))
    elif kind == "out_of_support":
        values[variable.name] = OUTSIDE
    elif kind == "unfixed":
        del values[variable.name]
    elif kind == "extra_name":
        values[("not", "a", "variable")] = 0
    return PartialAssignment(values)


def kernel_lookups() -> int:
    stats = STORE.stats()["kernels"]
    return stats["hits"] + stats["misses"]


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(INSTANCE_FAMILIES),
    n=st.integers(min_value=3, max_value=6).map(lambda k: 2 * k),
    seed=st.integers(min_value=0, max_value=3),
    kind=st.sampled_from(KINDS),
    pick=st.integers(min_value=0, max_value=10_000),
    engine=st.sampled_from(["naive", "compiled"]),
    artifacts=st.sampled_from(["on", "off"]),
)
def test_columnar_verify_equals_per_event_occurs(
    family, n, seed, kind, pick, engine, artifacts
):
    solution = solve(family_instance(family, n, seed)).assignment
    with using_planes(engine=engine, artifacts=artifacts):
        # A fresh copy: no event has a kernel yet, so every kernel the
        # columnar pass uses is acquired inside verify_solution.
        instance = family_instance(family, n, seed)
        assignment = mutated(instance, solution, kind, pick)
        shapes = len({event_shape_key(event) for event in instance.events})
        before = kernel_lookups()
        columnar = verify_solution(instance, assignment)
        lookups = kernel_lookups() - before
        reference = scalar_verify(family_instance(family, n, seed), assignment)
    assert columnar == reference
    assert columnar.ok == (kind in ("valid", "extra_name"))
    assert lookups <= shapes


def test_value_outside_the_value_list_is_not_certified():
    """Every variable set to a value none of them has: nothing occurs,
    but the answer is not a solution."""
    for engine in ("compiled", "naive"):
        with using_planes(engine=engine):
            instance = all_zero_edge_instance(random_regular_graph(10, 3, 1), 3)
            assignment = PartialAssignment(
                {name: OUTSIDE for name in instance.variable_names}
            )
            result = verify_solution(instance, assignment)
        assert result.complete
        assert result.occurring == ()
        assert result.invalid == instance.variable_names
        assert not result.ok, engine
        assert result == scalar_verify(instance, assignment)


def test_incomplete_assignment_reports_invalid_values_too():
    instance = all_zero_edge_instance(random_regular_graph(10, 3, 1), 3)
    first, second = instance.variable_names[:2]
    result = verify_solution(
        instance, PartialAssignment({first: OUTSIDE, second: 1})
    )
    assert not result.complete
    assert result.invalid == (first,)
    assert first not in result.unfixed and second not in result.unfixed


@pytest.mark.parametrize("engine", ["compiled", "naive"])
def test_scalar_fallbacks_are_counted_with_their_reason(engine):
    instance = all_zero_edge_instance(random_regular_graph(10, 3, 1), 3)
    solution = solve(instance).assignment
    values = dict(solution.items())
    name = instance.variable_names[0]
    values[name] = OUTSIDE
    columnar, scalar = STATS.verify_columnar_events, STATS.verify_scalar_events
    with using_planes(engine=engine), recording() as recorder:
        result = verify_solution(instance, PartialAssignment(values))
    columnar = STATS.verify_columnar_events - columnar
    scalar = STATS.verify_scalar_events - scalar
    assert columnar + scalar == instance.num_events
    assert result.invalid == (name,)
    counts = {
        key[1]: value
        for key, value in recorder.counters.items()
        if key[0] == "verify"
    }
    assert {key[len("scalar_"):] for key in counts} <= set(SCALAR_REASONS)
    if engine == "naive":
        assert counts == {"scalar_naive_engine": instance.num_events}
    else:
        touching = len(instance.events_of_variable(name))
        assert counts == {"scalar_outside_index_map": touching}
    assert scalar == sum(counts.values())


def test_hintless_events_take_the_per_event_path():
    """Events defined only by a predicate have no shape key: they are
    evaluated one by one, next to a shape group of hinted events."""
    coins = [DiscreteVariable.fair_coin(f"x{i}") for i in range(4)]
    opaque = BadEvent(
        "opaque", coins[:2], lambda values: values["x0"] == values["x1"]
    )
    hinted = [
        BadEvent.all_equal(f"hinted{i}", coins[i:i + 2], 1)
        for i in range(1, 3)
    ]
    instance = LLLInstance([opaque] + hinted)
    names = instance.variable_names
    for bits in range(16):
        assignment = PartialAssignment(
            {name: (bits >> i) & 1 for i, name in enumerate(names)}
        )
        with using_planes(engine="compiled"), recording() as recorder:
            result = verify_solution(instance, assignment)
        assert result == scalar_verify(instance, assignment)
        assert recorder.counter_value("verify", "scalar_no_shape") == 1
