"""Differential guarantee of the vector decide plane.

The whole-class batch path (``decide_class``/``commit_class``, lowered
and executed by :mod:`repro.core.vector`) must be *bit-identical* to the
per-op scalar path it replaces: same final assignment, same step
records, same certified phi ledger — exact ``==``, not approximate.
The scalar path is retained verbatim behind ``REPRO_DECIDE=scalar`` as
the differential oracle, so every suite here runs the same seeded
workload once per decide mode and compares transcripts.

Coverage axes: the three fixer disciplines (rank 2, rank 3, naive
rank-r), both scheduler backends, the naive (uncompiled) engine —
where the vector plane must *fall back* without perturbing anything —
an ambient ``REPRO_FAULTS`` crash schedule on the process backend,
where recovery and batching compose, and an attached recorder with
invariant validation, which must see the same events and counters on
the batch commit as on the per-op path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.naive_rankr import NaiveRankRFixer
from repro.core.rank2 import Rank2Fixer
from repro.core.rank3 import Rank3Fixer
from repro.errors import ReproError
from repro.obs import recording
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
    partition_rounds_triples,
    random_regular_graph,
)
from repro.probability import reset_engine_stats
from repro.planes import planes, set_planes, using_planes
from repro.probability.engine import STATS
from repro.runtime import make_scheduler, plan_for_instance

SLOW_SETTINGS = settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEDULERS = ("serial", "process")


# ----------------------------------------------------------------------
# Strategies and the differential harness
# ----------------------------------------------------------------------
def rank2_specs():
    cycles = st.tuples(
        st.integers(min_value=3, max_value=14),
        st.integers(min_value=3, max_value=5),
    ).map(lambda t: ("cycle", t[0], t[1], 0))
    regulars = st.tuples(
        st.integers(min_value=4, max_value=7).map(lambda k: 2 * k),
        st.integers(min_value=5, max_value=6),
        st.integers(min_value=0, max_value=3),
    ).map(lambda t: ("regular", t[0], t[1], t[2]))
    return st.one_of(cycles, regulars)


def rank3_specs():
    return st.tuples(
        st.integers(min_value=5, max_value=16),
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


def make_fixer(kind, instance):
    if kind == "rank2":
        return Rank2Fixer(instance)
    if kind == "rank3":
        return Rank3Fixer(instance)
    return NaiveRankRFixer(instance)


def bounds_of(fixer):
    if hasattr(fixer, "certified_bounds"):
        return fixer.certified_bounds()
    return fixer.pstar.certified_bounds()


def transcript(spec, kind, scheduler_name, mode, **scheduler_kwargs):
    """One full run: fresh instance, fresh fixer, fresh scheduler."""
    instance = build_instance(spec)
    plan = plan_for_instance(instance)
    with using_planes(decide=mode):
        fixer = make_fixer(kind, instance)
        scheduler = make_scheduler(scheduler_name, **scheduler_kwargs)
        scheduler.execute(fixer, plan, instance)
    values = {
        variable.name: fixer.assignment.value_of(variable.name)
        for variable in instance.variables
    }
    return values, fixer.steps, bounds_of(fixer)


def assert_identical(reference, candidate, label):
    assert candidate[0] == reference[0], f"{label}: assignments differ"
    assert candidate[1] == reference[1], f"{label}: step records differ"
    assert candidate[2] == reference[2], f"{label}: phi ledgers differ"


# ----------------------------------------------------------------------
# Vector vs scalar, across fixers and schedulers
# ----------------------------------------------------------------------
@SLOW_SETTINGS
@given(spec=rank2_specs())
def test_vector_identical_rank2(spec):
    reference = transcript(spec, "rank2", "serial", "scalar")
    for name in SCHEDULERS:
        assert_identical(
            reference,
            transcript(spec, "rank2", name, "vector"),
            f"rank2/{name}",
        )


@SLOW_SETTINGS
@given(spec=rank3_specs())
def test_vector_identical_rank3(spec):
    reference = transcript(spec, "rank3", "serial", "scalar")
    for name in SCHEDULERS:
        assert_identical(
            reference,
            transcript(spec, "rank3", name, "vector"),
            f"rank3/{name}",
        )


@SLOW_SETTINGS
@given(spec=rank3_specs())
def test_vector_identical_naive_rankr(spec):
    reference = transcript(spec, "naive", "serial", "scalar")
    for name in SCHEDULERS:
        assert_identical(
            reference,
            transcript(spec, "naive", name, "vector"),
            f"naive/{name}",
        )


def recorded_transcript(spec, kind, mode):
    """A serial run under a recorder, with the invariant checked per step
    (``validate_invariant=True`` where the fixer takes it).

    Returns the transcript, the ``fix`` events, the ``fixer.*`` and
    ``pstar`` counter totals, and how many classes took the batch path.
    """
    instance = build_instance(spec)
    plan = plan_for_instance(instance)
    with using_planes(decide=mode), recording() as recorder:
        if kind == "naive":
            fixer = NaiveRankRFixer(instance)
        else:
            fixer_class = Rank2Fixer if kind == "rank2" else Rank3Fixer
            fixer = fixer_class(instance, validate_invariant=True)
        make_scheduler("serial").execute(fixer, plan, instance)
    values = {
        variable.name: fixer.assignment.value_of(variable.name)
        for variable in instance.variables
    }
    fixes = [
        (event["component"], event["payload"])
        for event in recorder.memory.events
        if event["event"] == "fix"
    ]
    counters = {
        key: value
        for key, value in recorder.counters.items()
        if key[0].startswith("fixer.") or key[0] == "pstar"
    }
    batches = recorder.counter_value("runtime", "class_batches")
    return (values, fixer.steps, bounds_of(fixer)), fixes, counters, batches


@pytest.mark.parametrize(
    "kind, spec",
    [
        ("rank2", ("regular", 10, 5, 1)),
        ("rank3", ("triples", 12, 6, 0)),
        ("naive", ("triples", 12, 6, 0)),
    ],
)
def test_vector_identical_under_recorder(kind, spec):
    """A recorder and invariant validation leave the batch commit on and
    see exactly what they see on the per-op scalar path."""
    reference, ref_fixes, ref_counters, ref_batches = recorded_transcript(
        spec, kind, "scalar"
    )
    candidate, fixes, counters, batches = recorded_transcript(
        spec, kind, "vector"
    )
    assert ref_batches == 0
    assert batches > 0
    assert_identical(reference, candidate, f"recorded/{kind}")
    assert len(ref_fixes) == len(reference[1])
    assert fixes == ref_fixes
    assert counters == ref_counters


def test_vector_path_actually_engages():
    """A fresh instance's serial vector run takes real stacked passes."""
    reset_engine_stats()
    spec = ("triples", 12, 6, 0)
    reference = transcript(spec, "rank3", "serial", "scalar")
    reset_engine_stats()
    candidate = transcript(spec, "rank3", "serial", "vector")
    assert_identical(reference, candidate, "engagement")
    # Either fresh stacked engine passes or template memo hits — never
    # zero of both (that would mean the scalar loop silently ran).
    assert STATS.vector_passes + STATS.vector_memo_hits > 0
    assert STATS.vector_fallbacks == 0


def test_bug_in_the_batch_path_propagates(monkeypatch):
    """Only typed fallbacks reach the scalar loop; a bug surfaces."""
    from repro.core import solve, vector

    def broken(*args, **kwargs):
        raise TypeError("injected bug in the wave executor")

    monkeypatch.setattr(vector, "_run_twave", broken)
    instance = build_instance(("triples", 8, 6, 0))
    with using_planes(decide="vector"):
        with pytest.raises(TypeError, match="injected bug"):
            solve(instance, scheduler=make_scheduler("serial"))


@pytest.mark.parametrize("artifacts", ["on", "off"])
def test_content_identical_kernels_share_one_stack_slot(artifacts):
    """With the plane off every event compiles its own kernel; the
    template still stacks one truth table for them all, because slots
    are keyed on kernel content, not on the kernel object."""
    from repro.core import solve

    instance = all_zero_edge_instance(cycle_graph(10), 3)
    with using_planes(decide="vector", artifacts=artifacts):
        solve(instance, scheduler=make_scheduler("serial"))
        kernels = {id(event.compiled_kernel()) for event in instance.events}
    (template,) = instance._vector_templates.values()
    assert len(kernels) == (1 if artifacts == "on" else 10)
    assert len(template.names) == 10
    assert len(template.stack.kernels) == 1


def test_no_support_entry_outlives_a_cleared_store():
    """Support structure lives on the template and kernel fingerprints
    on the kernel, so both go with them: 200 fresh shapes, each solve
    followed by a store clear, leave no entry in any module-level table
    of the vector plane or the engine."""
    from repro.artifacts.store import STORE
    from repro.core import solve, vector
    from repro.probability import engine

    def module_entries():
        return sum(
            len(value)
            for module in (vector, engine)
            for name, value in vars(module).items()
            if isinstance(value, dict) and not name.startswith("__")
        )

    before = module_entries()
    reset_engine_stats()
    with using_planes(decide="vector"):
        for index in range(200):
            bad = 0.05 + index * 1e-4
            instance = all_zero_edge_instance(
                cycle_graph(8), 3, probabilities=(bad, 0.5, 0.5 - bad)
            )
            solve(instance, scheduler=make_scheduler("serial"))
            STORE.clear()
    assert STATS.vector_passes + STATS.vector_memo_hits > 0
    assert module_entries() == before


def test_equal_labels_of_different_types_stay_apart():
    """Variables labelled ``(0, 1, 2)`` and ``(False, True, 2)`` compare
    equal but commit different objects: the batch must commit each
    variable's own labels, as the scalar path does."""
    from repro.lll.instance import LLLInstance
    from repro.probability import DiscreteVariable
    from repro.probability.event import BadEvent

    variables = [
        DiscreteVariable(
            ("e", i), (0, 1, 2) if i % 2 else (False, True, 2),
            (1 / 3, 1 / 3, 1 / 3),
        )
        for i in range(8)
    ]
    events = [
        BadEvent.from_bad_outcomes(
            i, [variables[i - 1], variables[i]],
            [(variables[i - 1].values[0], variables[i].values[0])],
        )
        for i in range(8)
    ]
    committed = []
    for mode in ("scalar", "vector"):
        instance = LLLInstance(events)
        plan = plan_for_instance(instance)
        with using_planes(decide=mode):
            fixer = Rank2Fixer(instance)
            make_scheduler("serial").execute(fixer, plan, instance)
        committed.append([
            repr(fixer.assignment.value_of(name))
            for name in instance.variable_names
        ])
    assert committed[1] == committed[0]


# ----------------------------------------------------------------------
# Columnar lowering on the cold rank-3 benchmark shape
# ----------------------------------------------------------------------
def rounds_instance():
    """Every event in 3 random triples, alphabet 5: one event shape."""
    triples = partition_rounds_triples(300, 3, 7)
    return all_zero_triple_instance(300, triples, 5)


def rank3_transcript(instance, mode):
    plan = plan_for_instance(instance)
    with using_planes(decide=mode):
        fixer = Rank3Fixer(instance)
        make_scheduler("serial").execute(fixer, plan, instance)
    values = {
        name: fixer.assignment.value_of(name)
        for name in instance.variable_names
    }
    return values, fixer.steps, bounds_of(fixer)


@pytest.mark.parametrize("artifacts", ["on", "off"])
def test_columnar_lowering_on_the_cold_rank3_shape(artifacts):
    """The lowering built from the scope columns decides exactly like
    the scalar oracle, asks the kernels tier at most once per shape
    (compiling once per event with the store off), and a class cut into
    chunk sections decides like the whole-class section."""
    from repro.artifacts.fingerprint import scope_layout
    from repro.artifacts.store import STORE
    from repro.core import vector

    with using_planes(artifacts=artifacts):
        STORE.clear()
        reference = rank3_transcript(rounds_instance(), "scalar")
        STORE.clear()
        reset_engine_stats()
        candidate = rank3_transcript(rounds_instance(), "vector")
        assert_identical(reference, candidate, f"rounds/{artifacts}")
        assert STATS.vector_fallbacks == 0
        assert STATS.vector_passes > 0

        STORE.clear()
        instance = rounds_instance()
        plan = plan_for_instance(instance)
        shapes = len(scope_layout(instance).shape_keys)
        tier = STORE.tier("kernels")
        lookups = tier.hits + tier.misses
        reset_engine_stats()
        with using_planes(decide="vector"):
            template = vector._template_for(instance, "rank3")
            sections = [
                template.section_for(instance, color_class.cells)
                for color_class in plan.classes
            ]
        assert tier.hits + tier.misses - lookups <= shapes
        expected_compiles = shapes if artifacts == "on" else 300
        assert STATS.kernel_compiles == expected_compiles

        stack = template.ensure_stack()
        pins = np.full((len(template.names), stack.width), -1, np.int64)
        phi = np.ones(template.ledger_size)
        decided = 0
        for color_class, section in zip(plan.classes, sections):
            cells = color_class.cells
            cuts = [0, len(cells) // 3, 2 * len(cells) // 3, len(cells)]
            chunks = [
                template.section_for(instance, cells, start, stop)
                for start, stop in zip(cuts, cuts[1:])
            ]
            whole_pins, whole_phi = pins.copy(), phi.copy()
            expected = vector.execute_section(
                stack, whole_pins, whole_phi, section, template.max_values
            )
            chunked = []
            for chunk in chunks:
                chunked += vector.execute_section(
                    stack, pins, phi, chunk, template.max_values
                )
            assert chunked == expected
            assert np.array_equal(pins, whole_pins)
            assert np.array_equal(phi, whole_phi)
            decided += sum(map(len, expected))
        assert decided == len(instance.variables)


# ----------------------------------------------------------------------
# Fallback composition: naive engine, ambient fault schedule
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=6,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=rank3_specs())
def test_vector_identical_under_naive_engine(spec):
    """No compiled kernels -> the class path falls back, bit-identically."""
    with using_planes(engine="naive"):
        reference = transcript(spec, "rank3", "serial", "scalar")
        candidate = transcript(spec, "rank3", "serial", "vector")
    assert_identical(reference, candidate, "naive-engine")


def test_vector_identical_under_ambient_fault_schedule(monkeypatch):
    """REPRO_FAULTS crash injection + worker-side class batching."""
    spec = ("triples", 14, 6, 0)
    reference = transcript(spec, "rank3", "serial", "scalar")
    monkeypatch.setenv("REPRO_FAULTS", "seed=3,crash=0.5,deadline=15")
    for mode in ("vector", "scalar"):
        candidate = transcript(
            spec, "rank3", "process", mode,
            max_workers=2, backoff_base=0.0,
        )
        assert_identical(reference, candidate, f"faults/{mode}")


# ----------------------------------------------------------------------
# Mode plumbing
# ----------------------------------------------------------------------
def test_decide_mode_plumbing():
    previous = planes()
    try:
        assert set_planes(decide="scalar") == previous
        assert planes().decide == "scalar"
        with using_planes(decide="vector"):
            assert planes().decide == "vector"
        assert planes().decide == "scalar"
        with pytest.raises(ReproError):
            set_planes(decide="quantum")
    finally:
        set_planes(decide=previous.decide)


def test_decide_class_returns_none_in_scalar_mode():
    instance = build_instance(("triples", 8, 6, 0))
    plan = plan_for_instance(instance)
    with using_planes(decide="scalar"):
        fixer = Rank3Fixer(instance)
        assert fixer.decide_class(plan.classes[0].cells) is None


def test_commit_class_without_pending_state_uses_scalar_commit():
    """Worker-produced choices commit through the full-fidelity path."""
    instance = build_instance(("triples", 8, 6, 0))
    plan = plan_for_instance(instance)
    with using_planes(decide="vector"):
        decider = Rank3Fixer(instance)
        cells = plan.classes[0].cells
        choices = decider.decide_class(cells)
        assert choices is not None
        # A different fixer never decided this class: no pending state.
        committer = Rank3Fixer(instance)
        committer.commit_class(cells, choices)
        decider.commit_class(cells, choices)
    assert committer.steps == decider.steps
