"""The execution plane's differential guarantee (and plan structure).

The process backend must be *bit-identical* to ``SerialScheduler``, the
one oracle:
same final assignment, same per-step trace, same certified phi ledger.
This is the paper's independence argument made executable — within a
color class, cells touch pairwise-disjoint event sets, so cross-cell
decisions commute and the backend's execution order cannot matter.  The
Hypothesis suites here drive both backends over seeded rank-2 and rank-3
instances and compare the results exactly (``==`` on floats, not
approximately).

Also: direct unit tests for the host-round accounting of the derived
colorings (``VIRTUAL_ROUND_FACTOR``), which both plan builders and the
message-level protocol charge for.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coloring import (
    VIRTUAL_ROUND_FACTOR,
    compute_edge_coloring,
    compute_two_hop_coloring,
)
from repro.core import solve_distributed
from repro.errors import ReproError, SimulationError
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
    random_regular_graph,
)
from repro.local_model.network import Network
from repro.runtime import (
    ProcessScheduler,
    SerialScheduler,
    make_scheduler,
    plan_for_instance,
)

SLOW_SETTINGS = settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Instance strategies (seeded, deterministic per draw)
# ----------------------------------------------------------------------
def rank2_instances():
    """Seeded rank-2 workloads: cycles and random regular graphs."""
    cycles = st.tuples(
        st.integers(min_value=3, max_value=16),
        st.integers(min_value=3, max_value=5),
    ).map(lambda t: ("cycle", t[0], t[1], 0))
    regulars = st.tuples(
        st.integers(min_value=4, max_value=8).map(lambda k: 2 * k),
        st.integers(min_value=5, max_value=6),
        st.integers(min_value=0, max_value=3),
    ).map(lambda t: ("regular", t[0], t[1], t[2]))
    return st.one_of(cycles, regulars)


def rank3_instances():
    """Seeded rank-3 workloads: cyclic triple chains."""
    return st.tuples(
        st.integers(min_value=5, max_value=18),
        st.integers(min_value=5, max_value=6),
    ).map(lambda t: ("triples", t[0], t[1], 0))


def build_instance(spec):
    family, n, alphabet, seed = spec
    if family == "cycle":
        return all_zero_edge_instance(cycle_graph(n), alphabet)
    if family == "regular":
        return all_zero_edge_instance(
            random_regular_graph(n, 3, seed=seed), alphabet
        )
    return all_zero_triple_instance(n, cyclic_triples(n), alphabet)


def run_with(spec, scheduler):
    """A fresh instance and a fresh fixer for every scheduler run."""
    return solve_distributed(build_instance(spec), scheduler=scheduler)


def assert_identical(reference, candidate):
    """The differential contract: exact equality, not approximation."""
    assert (
        candidate.fixing.assignment.as_dict()
        == reference.fixing.assignment.as_dict()
    )
    assert candidate.fixing.steps == reference.fixing.steps
    assert candidate.fixing.certified_bounds == reference.fixing.certified_bounds
    assert candidate.schedule_rounds == reference.schedule_rounds
    assert candidate.palette == reference.palette


# ----------------------------------------------------------------------
# Differential: the process backend vs SerialScheduler
# ----------------------------------------------------------------------
@SLOW_SETTINGS
@given(spec=rank2_instances())
def test_schedulers_identical_rank2(spec):
    reference = run_with(spec, SerialScheduler())
    assert_identical(
        reference, run_with(spec, ProcessScheduler(max_workers=2))
    )


@SLOW_SETTINGS
@given(spec=rank3_instances())
def test_schedulers_identical_rank3(spec):
    reference = run_with(spec, SerialScheduler())
    assert_identical(
        reference, run_with(spec, ProcessScheduler(max_workers=2))
    )


@settings(deadline=None, max_examples=20)
@given(spec=st.one_of(rank2_instances(), rank3_instances()))
def test_plan_covers_every_variable_once(spec):
    instance = build_instance(spec)
    plan = plan_for_instance(instance)
    names = list(plan.variables())
    assert sorted(names, key=repr) == sorted(
        (variable.name for variable in instance.variables), key=repr
    )
    assert len(names) == len(set(names))
    assert plan.num_ops == len(instance.variables)
    assert plan.critical_path <= plan.num_ops


# ----------------------------------------------------------------------
# Scheduler plumbing
# ----------------------------------------------------------------------
def test_make_scheduler_factory():
    assert isinstance(make_scheduler("serial"), SerialScheduler)
    assert isinstance(make_scheduler("process"), ProcessScheduler)
    with pytest.raises(ReproError):
        make_scheduler("quantum")
    # The error names every registered backend.
    with pytest.raises(ReproError) as excinfo:
        make_scheduler("batch")
    assert "('serial', 'process')" in str(excinfo.value)


def test_class_disjointness_is_enforced():
    """A corrupted plan cannot be built, so it can never race."""
    instance = build_instance(("cycle", 6, 3, 0))
    plan = plan_for_instance(instance)
    # Merge all classes into one: adjacent edges now share events.
    from repro.runtime.plan import ColorClass, FixPlan

    cells = tuple(
        cell for color_class in plan.classes for cell in color_class.cells
    )
    with pytest.raises(SimulationError, match="schedule conflict"):
        FixPlan(
            kind=plan.kind,
            classes=(ColorClass(color=0, cells=cells),),
            palette=1,
            coloring_rounds=plan.coloring_rounds,
        )


# ----------------------------------------------------------------------
# Host-round accounting of the derived colorings
# ----------------------------------------------------------------------
def test_virtual_round_factor_value():
    """One virtual round costs exactly two host rounds (see DESIGN.md)."""
    assert VIRTUAL_ROUND_FACTOR == 2


@pytest.mark.parametrize("n", [4, 9, 16])
def test_edge_coloring_host_round_accounting(n):
    result = compute_edge_coloring(Network(cycle_graph(n)))
    assert result.host_rounds == VIRTUAL_ROUND_FACTOR * result.virtual_rounds
    assert result.virtual_rounds > 0


@pytest.mark.parametrize("n", [9, 16, 25])
def test_two_hop_coloring_host_round_accounting(n):
    result = compute_two_hop_coloring(Network(cycle_graph(n)))
    assert result.host_rounds == VIRTUAL_ROUND_FACTOR * result.virtual_rounds
    assert result.virtual_rounds > 0


def test_two_hop_coloring_trivial_instance_charges_zero():
    """A graph its identifiers already color spends zero rounds — and the
    host-round accounting still holds (0 == 2 * 0)."""
    result = compute_two_hop_coloring(Network(cycle_graph(4)))
    assert result.virtual_rounds == 0
    assert result.host_rounds == 0


def test_plan_charges_coloring_host_rounds():
    """The plan's coloring cost is the coloring's host-round cost."""
    instance = build_instance(("triples", 12, 5, 0))
    plan = plan_for_instance(instance)
    from repro.core.indexing import indexed_dependency_network

    network, _, _ = indexed_dependency_network(instance)
    coloring = compute_two_hop_coloring(network)
    assert plan.coloring_rounds == coloring.host_rounds
    assert coloring.host_rounds % VIRTUAL_ROUND_FACTOR == 0


# ----------------------------------------------------------------------
# Differential under injected faults: recovery must be invisible
# ----------------------------------------------------------------------
@SLOW_SETTINGS
@given(spec=rank2_instances(), seed=st.integers(min_value=0, max_value=7))
def test_process_scheduler_identical_under_faults(spec, seed):
    """Crash/slow injection must not perturb the serial transcript."""
    from repro.faults import FaultPlan

    reference = run_with(spec, SerialScheduler())
    plan = FaultPlan(
        seed=seed,
        explicit_chunks=((0, "crash"),),
        slow_rate=0.3,
        slow_seconds=0.001,
    )
    candidate = run_with(
        spec,
        ProcessScheduler(
            max_workers=2,
            backoff_base=0.0,
            deadline=15.0,
            fault_plan=plan,
        ),
    )
    assert_identical(reference, candidate)
