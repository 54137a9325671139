"""Memo-hit replay: a class answered from its section memo commits like
the oracle.

The second same-content solve of a shape finds every color class in
its lowered section's memo and replays the cached choices, committing
them with the step records the memo entry built on its first commit.
That replay must be indistinguishable from the serial scalar oracle —
steps, certified bounds and assignment — and from the first (memo-miss)
solve in everything a recorder sees.  Its assignment checks run once
per class, and must still raise what the per-op commit raises.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.artifacts import STORE
from repro.core.naive_rankr import NaiveRankRFixer
from repro.core.rank2 import Rank2Fixer
from repro.core.rank3 import Rank3Fixer
from repro.core.selection import Decision
from repro.errors import InvalidAssignmentError
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cyclic_triples,
    random_regular_graph,
)
from repro.obs import recording
from repro.planes import using_planes
from repro.probability.engine import STATS
from repro.runtime import SerialScheduler, plan_for_instance

CASES = [
    ("rank2", ("regular", 10, 5, 1)),
    ("rank3", ("triples", 12, 6, 0)),
    ("naive", ("triples", 12, 6, 0)),
]

ORACLE = dict(engine="naive", graph="reference", decide="scalar",
              artifacts="off")
FAST = dict(engine="compiled", graph="vectorized", decide="vector",
            artifacts="on")


def build_instance(spec):
    family, n, alphabet, seed = spec
    if family == "regular":
        return all_zero_edge_instance(
            random_regular_graph(n, 3, seed=seed), alphabet
        )
    return all_zero_triple_instance(n, cyclic_triples(n), alphabet)


def make_fixer(kind, instance, validate=False):
    if kind == "naive":
        return NaiveRankRFixer(instance)
    fixer_class = Rank2Fixer if kind == "rank2" else Rank3Fixer
    return fixer_class(instance, validate_invariant=validate)


def recorded_solve(kind, spec, validate=False):
    """A serial solve of a fresh copy of ``spec`` under a recorder.

    Returns ``(assignment, steps, certified bounds)``, the ``fix``
    events, the ``fixer.*``/``pstar`` counters and the memo hits.
    """
    instance = build_instance(spec)
    hits = STATS.vector_memo_hits
    with recording() as recorder:
        plan = plan_for_instance(instance)
        fixer = make_fixer(kind, instance, validate)
        SerialScheduler().execute(fixer, plan, instance)
        result = fixer.run(order=())
    fixes = [
        event["payload"]
        for event in recorder.memory.events
        if event["event"] == "fix"
    ]
    counters = {
        key: value
        for key, value in recorder.counters.items()
        if key[0].startswith("fixer.") or key[0] == "pstar"
    }
    transcript = (
        dict(result.assignment.items()),
        result.steps,
        result.certified_bounds,
    )
    return transcript, fixes, counters, STATS.vector_memo_hits - hits


@pytest.mark.parametrize("kind, spec", CASES)
def test_memo_hit_replays_the_oracle(kind, spec):
    with using_planes(**ORACLE):
        oracle, oracle_fixes, oracle_counters, _ = recorded_solve(kind, spec)
    with using_planes(**FAST):
        STORE.clear()
        miss, miss_fixes, miss_counters, miss_hits = recorded_solve(kind, spec)
        hit, hit_fixes, hit_counters, hit_hits = recorded_solve(kind, spec)
    # Every class of the second solve is a hit; the first solve only
    # hits where an op-free class repeats one lowered section.
    classes = plan_for_instance(build_instance(spec)).num_classes
    assert hit_hits == classes
    assert miss_hits < classes
    assert miss == oracle
    assert hit == oracle
    assert len(oracle_fixes) == len(oracle[1])
    assert miss_fixes == hit_fixes == oracle_fixes
    assert miss_counters == hit_counters == oracle_counters


@pytest.mark.parametrize("kind, spec", CASES[:2])
def test_invariant_validation_passes_on_a_memo_hit(kind, spec):
    with using_planes(**ORACLE):
        oracle = recorded_solve(kind, spec)[0]
    with using_planes(**FAST):
        STORE.clear()
        recorded_solve(kind, spec)
        hit, _fixes, _counters, hits = recorded_solve(kind, spec, True)
    assert hits > 0
    assert hit == oracle


def test_replayed_records_are_built_once():
    """Two hits of one memo entry share its step records."""
    kind, spec = CASES[0]
    with using_planes(**FAST):
        STORE.clear()
        recorded_solve(kind, spec)
        first = recorded_solve(kind, spec)[0][1]
        second = recorded_solve(kind, spec)[0][1]
    assert first == second
    assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("kind, spec", CASES)
def test_memo_hit_onto_a_fixed_variable_raises_like_the_per_op_path(
    kind, spec
):
    with using_planes(**FAST):
        STORE.clear()
        recorded_solve(kind, spec)
        instance = build_instance(spec)
        plan = plan_for_instance(instance)
        cells = plan.classes[0].cells
        fixer = make_fixer(kind, instance)
        hits = STATS.vector_memo_hits
        choices = fixer.decide_class(cells)
        assert STATS.vector_memo_hits == hits + 1
        name = cells[0].ops[0].variable
        variable = instance.variable(name)
        choice = choices[0][0]
        other = next(
            value for value in variable.values if value != choice.value
        )
        fixer.assignment.fix(variable, other)
        with pytest.raises(InvalidAssignmentError) as on_hit:
            fixer.commit_class(cells, choices)

        per_op = make_fixer(kind, instance)
        per_op.assignment.fix(variable, other)
        decision = Decision(
            variable=variable,
            events=instance.events_of_variable(name),
            choice=choice,
        )
        with pytest.raises(InvalidAssignmentError) as on_op:
            per_op.commit(decision)
    assert str(on_hit.value) == str(on_op.value)
    assert "already fixed" in str(on_hit.value)


def test_a_memo_hit_commits_the_choices_it_is_given():
    """The cached records belong to the memo entry's own choices: a
    caller committing other choices gets records of those."""
    kind, spec = CASES[0]
    with using_planes(**FAST):
        STORE.clear()
        recorded_solve(kind, spec)
        instance = build_instance(spec)
        cells = plan_for_instance(instance).classes[0].cells
        fixer = make_fixer(kind, instance)
        choices = fixer.decide_class(cells)
        variable = instance.variable(cells[0].ops[0].variable)
        first = choices[0][0]
        other = next(value for value in variable.values if value != first.value)
        altered = [list(cell_choices) for cell_choices in choices]
        altered[0][0] = dataclasses.replace(first, value=other)
        fixer.commit_class(cells, altered)
    assert fixer.steps[0].value == other
    assert fixer.assignment.value_of(variable.name) == other
