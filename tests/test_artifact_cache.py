"""Differential guarantee of the structural-fingerprint artifact cache.

``SerialScheduler`` under ``REPRO_ARTIFACTS=off`` is the oracle: every
per-object cache keeps its exact legacy behaviour and nothing is shared
across objects.  With the plane ``on``, kernels, templates,
plans and instance parameters are reused across instances of the same
*shape* — and every transcript (final assignment, step records,
certified phi ledger) must stay bit-identical to the oracle's, cold
store or warm.

Coverage axes mirror ``test_decide_vector``: three fixer disciplines ×
both scheduler backends, plus the cross-instance warm path (a second
same-shape instance must *hit* the store, not just tolerate it), LRU
semantics of the shared cache primitive, the section-memo over-limit
regression (inserts used to stop silently at ``MEMO_LIMIT``), and an
ambient fault schedule on the process backend (recovery must not
corrupt or double-populate the store).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.artifacts import (
    LRUCache,
    STORE,
    event_shape_key,
    instance_fingerprint,
)
from repro.artifacts.store import ArtifactStore
from repro.core.naive_rankr import NaiveRankRFixer
from repro.core.rank2 import Rank2Fixer
from repro.core.rank3 import Rank3Fixer
from repro.errors import ReproError
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
    parity_edge_instance,
    random_regular_graph,
)
from repro.lll import LLLInstance
from repro.lll.io import instance_from_dict, instance_to_dict
from repro.probability import (
    BadEvent,
    DiscreteVariable,
    reset_engine_stats,
)
from repro.planes import planes, set_planes, using_planes
from repro.probability.engine import STATS
from repro.runtime import make_scheduler, plan_for_instance

SLOW_SETTINGS = settings(
    deadline=None,
    max_examples=6,
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


def transcript(spec, kind, scheduler_name, **scheduler_kwargs):
    """One full run under the ambient artifacts mode.

    A *fresh* instance every call: with the plane on, any reuse is by
    structural fingerprint across distinct objects — exactly the
    property under test.
    """
    instance = build_instance(spec)
    plan = plan_for_instance(instance)
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


def run_differential(spec, kind, scheduler_name, **scheduler_kwargs):
    """Serial off-oracle vs cold-store vs warm-store, all bit-identical."""
    with using_planes(artifacts="off"):
        reference = transcript(spec, kind, "serial")
    with using_planes(artifacts="on"):
        STORE.clear()
        cold = transcript(spec, kind, scheduler_name, **scheduler_kwargs)
        warm = transcript(spec, kind, scheduler_name, **scheduler_kwargs)
    label = f"{kind}/{scheduler_name}"
    assert_identical(reference, cold, f"{label}/cold")
    assert_identical(reference, warm, f"{label}/warm")
    # The warm run solved a *different* instance object of the same
    # shape: it must have found its plan in the store.
    assert STORE.tier("plans").hits > 0, f"{label}: warm run never hit"


# ----------------------------------------------------------------------
# on vs off, across fixers and schedulers
# ----------------------------------------------------------------------
@SLOW_SETTINGS
@given(spec=rank2_specs())
def test_artifacts_identical_rank2(spec):
    for name in SCHEDULERS:
        run_differential(spec, "rank2", name)


@SLOW_SETTINGS
@given(spec=rank3_specs())
def test_artifacts_identical_rank3(spec):
    for name in SCHEDULERS:
        run_differential(spec, "rank3", name)


@SLOW_SETTINGS
@given(spec=rank3_specs())
def test_artifacts_identical_naive_rankr(spec):
    for name in SCHEDULERS:
        run_differential(spec, "naive", name)


# ----------------------------------------------------------------------
# Cross-instance reuse: the second same-shape instance hits every tier
# ----------------------------------------------------------------------
def test_second_same_shape_instance_reuses_artifacts():
    spec = ("cycle", 12, 3, 0)
    with using_planes(artifacts="on"):
        STORE.clear()
        reset_engine_stats()
        first = transcript(spec, "rank2", "serial")
        compiles_cold = STATS.kernel_compiles
        assert compiles_cold > 0
        second = transcript(spec, "rank2", "serial")
        # The warm solve itself needs no kernels at all (probabilities
        # come from the parameters tier, the template carries its
        # stacks), but a fresh same-shape event that *does* ask for its
        # kernel gets the cold run's compile back from the store.
        reuses_warm = STATS.kernel_reuses
        probe = build_instance(spec)
        probe.events[0].probability()
    assert_identical(first, second, "same-shape")
    # Plan, template and event probabilities all came from the store:
    # no new compiles, real tier hits.
    assert STATS.kernel_compiles == compiles_cold
    assert STATS.kernel_reuses == reuses_warm + 1
    assert STORE.tier("kernels").hits >= 1
    assert STORE.tier("plans").hits == 1
    assert STORE.tier("templates").hits >= 1
    assert STORE.tier("parameters").hits >= 1


def test_different_shape_instances_do_not_collide():
    with using_planes(artifacts="on"):
        STORE.clear()
        a = transcript(("cycle", 12, 3, 0), "rank2", "serial")
        b = transcript(("cycle", 13, 3, 0), "rank2", "serial")
        b_again = transcript(("cycle", 13, 3, 0), "rank2", "serial")
    assert STORE.tier("plans").misses >= 2
    assert len(a[0]) != len(b[0])
    assert_identical(b, b_again, "reuse-after-mixing")


def test_unfingerprintable_instance_skips_every_tier():
    """Opaque-predicate events keep the exact legacy (per-object) path."""
    instance = parity_edge_instance(cycle_graph(8), 0.1)
    assert instance_fingerprint(instance) is None
    with using_planes(artifacts="on"):
        STORE.clear()
        plan = plan_for_instance(instance)
        fixer = Rank2Fixer(instance)
        make_scheduler("serial").execute(fixer, plan, instance)
    # Every fingerprint-keyed tier skips the instance.
    for tier_name in ("kernels", "plans", "templates", "parameters"):
        assert len(STORE.tier(tier_name)) == 0, tier_name
        assert STORE.tier(tier_name).hits == 0, tier_name


def test_fingerprints_separate_shapes():
    same_a = instance_fingerprint(all_zero_edge_instance(cycle_graph(9), 3))
    same_b = instance_fingerprint(all_zero_edge_instance(cycle_graph(9), 3))
    other_n = instance_fingerprint(all_zero_edge_instance(cycle_graph(10), 3))
    other_k = instance_fingerprint(all_zero_edge_instance(cycle_graph(9), 4))
    assert same_a == same_b
    assert len({same_a, other_n, other_k}) == 3


# ----------------------------------------------------------------------
# Fingerprint exactness: the one-pass fingerprint against the per-event
# repr streams it replaced
# ----------------------------------------------------------------------
def structure_stream(instance):
    """The content the fingerprint must be exact over, one repr per event.

    This is the per-event structure the fingerprint used to digest:
    event name, scope names, each scope variable's values and
    probabilities, and the bad outcomes sorted by ``repr``.  Two
    instances must fingerprint equal exactly when these streams are.
    """
    return [
        repr((
            event.name,
            event.scope_names,
            tuple(
                (variable.values, variable.probabilities)
                for variable in event.variables
            ),
            tuple(sorted(map(repr, event.bad_outcomes_hint))),
        ))
        for event in instance.events
    ]


def build_from_desc(desc, share_variables=True):
    """An instance from plain data.

    ``desc = (variables, events)``: variables are ``(name, values,
    probabilities)``; events are ``(name, scope as variable indices,
    bad outcomes, copies)``, where ``copies`` maps a variable index to
    the spec of a private copy this event uses instead.  With
    ``share_variables=False`` every event gets its own copy of each
    scope variable, so object sharing differs while the content does
    not.
    """
    variables, events = desc
    shared = [DiscreteVariable(*spec) for spec in variables]
    built = []
    for name, scope, bad, copies in events:
        scope_variables = [
            DiscreteVariable(*copies[index]) if index in copies
            else shared[index] if share_variables
            else DiscreteVariable(*variables[index])
            for index in scope
        ]
        built.append(BadEvent.from_bad_outcomes(name, scope_variables, bad))
    return LLLInstance(built)


#: One support tuple object per alphabet, shared by every variable, as
#: the generators share theirs.
SUPPORTS = {2: (0, 1), 3: (0, 1, 2)}


@st.composite
def instance_descs(draw):
    """Small rank-2 or rank-3 instances with hinted events.

    Every variable joins at most ``rank`` events; supports hold the
    label ``0`` and some distributions hold a ``0.0`` probability, so
    the label and signed-zero mutations always have a target.
    """
    rank = draw(st.sampled_from((2, 3)))
    num_events = draw(st.integers(min_value=2, max_value=6))
    scopes = [[] for _ in range(num_events)]
    variables = []
    for index in range(draw(st.integers(min_value=2, max_value=9))):
        alphabet = draw(st.sampled_from((2, 3)))
        values = SUPPORTS[alphabet]
        probabilities = draw(st.sampled_from((
            tuple([1.0 / alphabet] * alphabet),
            (1.0,) + (0.0,) * (alphabet - 1),
        )))
        name = draw(
            st.sampled_from((("v", index), f"v{index}", 100 + index))
        )
        variables.append((name, values, probabilities))
        members = draw(st.lists(
            st.integers(min_value=0, max_value=num_events - 1),
            min_size=1, max_size=rank, unique=True,
        ))
        for member in members:
            scopes[member].append(index)
    events = []
    for position, scope in enumerate(scopes):
        if not scope:
            continue
        supports = [variables[index][1] for index in scope]
        all_zero = [tuple(0 for _ in scope)]
        others = draw(st.lists(
            st.tuples(*[st.sampled_from(values) for values in supports]),
            max_size=2,
        ))
        events.append((position, scope, all_zero + others, {}))
    assume(len(events) >= 2)
    return variables, events


def _relabel(value, old, new):
    return new if (value == old and type(value) is type(old)) else value


MUTATIONS = (
    "label", "label-one-copy", "signed-zero", "rename", "rename-event",
    "swap-scope", "swap-events", "hint",
)


def mutate(desc, kind, data):
    """One single-point edit of ``desc`` of the given kind."""
    variables, events = [list(part) for part in desc]
    if kind == "label":
        # Relabel 0 as 0.0 or False in one support, its hint entries, or
        # both: equal under ``==``, different to a template.
        target = data.draw(st.integers(0, len(variables) - 1))
        new = data.draw(st.sampled_from((0.0, False)))
        where = data.draw(st.sampled_from(("support", "hint", "both")))
        name, values, probabilities = variables[target]
        if where in ("support", "both"):
            values = tuple(_relabel(value, 0, new) for value in values)
            variables[target] = (name, values, probabilities)
        if where in ("hint", "both"):
            events = [
                (event_name, scope, [
                    tuple(
                        _relabel(value, 0, new) if index == target else value
                        for index, value in zip(scope, outcome)
                    )
                    for outcome in bad
                ], copies)
                for event_name, scope, bad, copies in events
            ]
    elif kind == "label-one-copy":
        # One event holds a private copy of a variable whose support
        # says False where every other event's says 0.
        target = data.draw(st.integers(0, len(events) - 1))
        event_name, scope, bad, copies = events[target]
        index = data.draw(st.sampled_from(scope))
        name, values, probabilities = variables[index]
        values = tuple(_relabel(value, 0, False) for value in values)
        events[target] = (
            event_name, scope, bad, {index: (name, values, probabilities)}
        )
    elif kind == "signed-zero":
        candidates = [
            index for index, (_, _, probabilities) in enumerate(variables)
            if 0.0 in probabilities
        ]
        assume(candidates)
        target = data.draw(st.sampled_from(candidates))
        name, values, probabilities = variables[target]
        variables[target] = (
            name, values, tuple(-0.0 if p == 0.0 else p for p in probabilities)
        )
    elif kind == "rename":
        target = data.draw(st.integers(0, len(variables) - 1))
        name, values, probabilities = variables[target]
        variables[target] = (("renamed", target), values, probabilities)
    elif kind == "rename-event":
        target = data.draw(st.integers(0, len(events) - 1))
        event_name, scope, bad, copies = events[target]
        new_name = data.draw(st.sampled_from((
            float(event_name), ("renamed-event", event_name),
        )))
        events[target] = (new_name, scope, bad, copies)
    elif kind == "swap-scope":
        candidates = [i for i, event in enumerate(events) if len(event[1]) > 1]
        assume(candidates)
        target = data.draw(st.sampled_from(candidates))
        event_name, scope, bad, copies = events[target]
        a, b = data.draw(st.lists(
            st.integers(0, len(scope) - 1), min_size=2, max_size=2,
            unique=True,
        ))

        def swapped(row):
            row = list(row)
            row[a], row[b] = row[b], row[a]
            return tuple(row)

        events[target] = (
            event_name, swapped(scope), [swapped(o) for o in bad], copies
        )
    elif kind == "swap-events":
        a, b = data.draw(st.lists(
            st.integers(0, len(events) - 1), min_size=2, max_size=2,
            unique=True,
        ))
        events[a], events[b] = events[b], events[a]
    else:
        target = data.draw(st.integers(0, len(events) - 1))
        event_name, scope, bad, copies = events[target]
        outcome = tuple(
            data.draw(st.sampled_from(variables[index][1])) for index in scope
        )
        if outcome in bad:
            bad = [other for other in bad if other != outcome]
        else:
            bad = bad + [outcome]
        events[target] = (event_name, scope, bad, copies)
    return variables, events


FINGERPRINT_SETTINGS = settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.mark.parametrize("kind", MUTATIONS)
@FINGERPRINT_SETTINGS
@given(desc=instance_descs(), data=st.data())
def test_fingerprint_equal_iff_structure_streams_equal(kind, desc, data):
    mutated = mutate(desc, kind, data)
    share = data.draw(st.booleans())
    base = build_from_desc(desc, share)
    other = build_from_desc(mutated, share)
    same_content = structure_stream(base) == structure_stream(other)
    fingerprints = instance_fingerprint(base), instance_fingerprint(other)
    assert (fingerprints[0] == fingerprints[1]) == same_content, kind


@FINGERPRINT_SETTINGS
@given(desc=instance_descs())
def test_copies_and_round_trips_fingerprint_equal(desc):
    instance = build_from_desc(desc)
    fingerprint = instance_fingerprint(instance)
    assert fingerprint is not None
    assert instance_fingerprint(build_from_desc(desc)) == fingerprint
    unshared = build_from_desc(desc, share_variables=False)
    assert instance_fingerprint(unshared) == fingerprint
    round_trip = instance_from_dict(instance_to_dict(instance))
    assert structure_stream(round_trip) == structure_stream(instance)
    assert instance_fingerprint(round_trip) == fingerprint
    # The shape keys the pass memoises on events are the ones an event
    # computes on its own.
    fresh = build_from_desc(desc)
    assert [event_shape_key(e) for e in fresh.events] == [
        event_shape_key(e) for e in instance.events
    ]


def test_fingerprint_sees_which_event_has_which_shape():
    """Moving a shape between events keeps the set of shapes, not the
    fingerprint."""
    variables = [(("v", i), SUPPORTS[2], (0.5, 0.5)) for i in range(3)]
    scopes = [(0, 1), (1, 2), (2, 0)]
    plain, doubled = [(0, 0)], [(0, 0), (1, 1)]

    def desc(hints):
        return variables, [
            (position, scope, hint, {})
            for position, (scope, hint) in enumerate(zip(scopes, hints))
        ]

    before = build_from_desc(desc([plain, doubled, plain]))
    after = build_from_desc(desc([plain, doubled, doubled]))
    assert structure_stream(before) != structure_stream(after)
    assert instance_fingerprint(before) != instance_fingerprint(after)


def test_shape_keys_ignore_names_but_not_supports():
    instance = all_zero_edge_instance(cycle_graph(6), 3)
    keys = {event_shape_key(event) for event in instance.events}
    assert len(keys) == 1
    wider = all_zero_edge_instance(cycle_graph(6), 4)
    assert event_shape_key(wider.events[0]) not in keys


@pytest.mark.parametrize("fingerprint_first", (False, True))
def test_single_shape_instance_compiles_one_kernel(fingerprint_first):
    """One compile per distinct shape with the plane on, one per event off."""
    expected = {"on": 1, "off": 9}
    with using_planes(engine="compiled"):
        for mode, compiles in expected.items():
            with using_planes(artifacts=mode):
                STORE.clear()
                reset_engine_stats()
                instance = all_zero_edge_instance(cycle_graph(9), 3)
                if fingerprint_first:
                    instance_fingerprint(instance)
                kernels = [e.compiled_kernel() for e in instance.events]
                assert STATS.kernel_compiles == compiles, mode
                assert len({id(kernel) for kernel in kernels}) == compiles
                if mode == "on":
                    assert STORE.tier("kernels").misses == 1
                    assert STORE.tier("kernels").hits == 8


# ----------------------------------------------------------------------
# The shared cache primitive
# ----------------------------------------------------------------------
def test_lru_cache_evicts_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
    assert cache.put("c", 3) == "b"
    assert cache.evictions == 1
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert len(cache) == 2


def test_lru_cache_over_limit_keeps_inserting():
    """Regression: inserts past capacity must evict, not stop."""
    cache = LRUCache(3)
    for i in range(10):
        cache[i] = i * i
    assert len(cache) == 3
    assert cache.evictions == 7
    # The *latest* entries survive — the old memo kept the earliest.
    assert cache.get(9) == 81
    assert cache.get(0) is None


def test_lru_cache_update_existing_key_is_not_an_eviction():
    cache = LRUCache(1)
    cache.put("a", 1)
    assert cache.put("a", 2) is None
    assert cache.evictions == 0
    assert cache.get("a") == 2


def test_lru_cache_zero_capacity_never_stores():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is None


def test_store_off_mode_is_inert():
    with using_planes(artifacts="off"):
        STORE.clear()
        STORE.put("plans", ("key",), "value")
        assert STORE.get("plans", ("key",)) is None
    totals = STORE.totals()
    assert totals == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}


def test_store_none_key_is_inert():
    with using_planes(artifacts="on"):
        STORE.clear()
        STORE.put("plans", None, "value")
        assert STORE.get("plans", None) is None
        assert STORE.totals()["size"] == 0
        assert STORE.totals()["misses"] == 0


def test_store_capacity_override():
    store = ArtifactStore(capacities={"plans": 1})
    with using_planes(artifacts="on"):
        store.put("plans", "a", 1)
        store.put("plans", "b", 2)
        assert store.get("plans", "a") is None
        assert store.get("plans", "b") == 2
    assert store.tier("plans").evictions == 1


def test_store_has_exactly_five_tiers():
    import repro.artifacts as artifacts
    from repro.errors import ConfigurationError
    from repro.probability import engine

    tiers = {"kernels", "templates", "plans", "parameters", "solutions"}
    assert set(STORE.stats()) == tiers
    assert set(ArtifactStore(capacities={"plans": 1}).stats()) == tiers
    for call in (
        lambda: STORE.tier("indexings"),
        lambda: STORE.get("stacks", ("key",)),
        lambda: STORE.put("stacks", ("key",), "value"),
        lambda: ArtifactStore(capacities={"indexings": 4}),
    ):
        with pytest.raises(ConfigurationError):
            call()
    for name in ("stack_key", "CAPACITY_ENV", "ArtifactTier"):
        assert not hasattr(artifacts, name), name
    assert not hasattr(engine, "_FINGERPRINTS")


# ----------------------------------------------------------------------
# Section-memo over-limit regression (satellite: MEMO_LIMIT freeze)
# ----------------------------------------------------------------------
def test_section_memo_is_lru_and_survives_tiny_limit(monkeypatch):
    from repro.core import vector

    spec = ("triples", 12, 6, 0)
    with using_planes(artifacts="off"):
        reference = transcript(spec, "rank3", "serial")
    monkeypatch.setattr(vector, "MEMO_LIMIT", 1)
    with using_planes(artifacts="on"):
        STORE.clear()
        cold = transcript(spec, "rank3", "serial")
        warm = transcript(spec, "rank3", "serial")
    assert_identical(reference, cold, "memo-limit/cold")
    assert_identical(reference, warm, "memo-limit/warm")
    # The lowered template's sections carry LRU memos bounded by the
    # patched limit.
    memos = [
        section.memo
        for template in STORE.tier("templates").data.values()
        for _cells, section in template.sections.values()
    ]
    assert memos, "no lowered sections were cached"
    for memo in memos:
        assert isinstance(memo, LRUCache)
        assert len(memo) <= 1


def test_section_memo_over_limit_path_evicts():
    """Pushing a real section memo past capacity evicts the oldest
    batch instead of refusing the insert — the old code froze the first
    ``MEMO_LIMIT`` signatures forever."""
    from repro.core import vector

    spec = ("triples", 12, 6, 0)
    with using_planes(artifacts="on"):
        STORE.clear()
        transcript(spec, "rank3", "serial")
        memos = [
            section.memo
            for template in STORE.tier("templates").data.values()
            for _cells, section in template.sections.values()
        ]
    assert memos
    memo = memos[0]
    memo.capacity = 2
    overflow = [("synthetic", i) for i in range(4)]
    for key in overflow:
        memo.put(key, "batch")
    # Four inserts into a 2-slot memo: the old code would have kept the
    # first two forever; LRU keeps the newest two.
    assert memo.evictions >= 2
    assert len(memo) == 2
    assert memo.get(overflow[-1]) == "batch"
    assert memo.get(overflow[-2]) == "batch"
    assert memo.get(overflow[0]) is None


# ----------------------------------------------------------------------
# Fault recovery must not corrupt or double-populate the store
# ----------------------------------------------------------------------
def test_artifacts_identical_under_ambient_fault_schedule(monkeypatch):
    spec = ("triples", 14, 6, 0)
    with using_planes(artifacts="off"):
        reference = transcript(spec, "rank3", "serial")
    monkeypatch.setenv("REPRO_FAULTS", "seed=3,crash=0.5,deadline=15")
    with using_planes(artifacts="on"):
        STORE.clear()
        cold = transcript(spec, "rank3", "process",
                          max_workers=2, backoff_base=0.0)
        warm = transcript(spec, "rank3", "process",
                          max_workers=2, backoff_base=0.0)
    assert_identical(reference, cold, "faults/cold")
    assert_identical(reference, warm, "faults/warm")
    # Retried chunks re-derive nothing in the parent: one shape means
    # one plan and at most one template — recovery never
    # double-populates.
    assert len(STORE.tier("plans")) == 1
    assert len(STORE.tier("templates")) <= 1


# ----------------------------------------------------------------------
# Mode plumbing and CLI
# ----------------------------------------------------------------------
def test_artifacts_mode_plumbing():
    previous = planes()
    try:
        assert set_planes(artifacts="off") == previous
        assert planes().artifacts == "off"
        with using_planes(artifacts="on"):
            assert planes().artifacts == "on"
        assert planes().artifacts == "off"
        with pytest.raises(ReproError):
            set_planes(artifacts="maybe")
    finally:
        set_planes(artifacts=previous.artifacts)


def test_scheduler_publishes_artifact_stats():
    from repro.obs import recording

    spec = ("cycle", 10, 3, 0)
    with using_planes(artifacts="on"):
        STORE.clear()
        with recording(run_id="artifact-stats") as recorder:
            transcript(spec, "rank2", "serial")
            transcript(spec, "rank2", "serial")
    counters = recorder.counters
    assert counters.get(("artifacts", "plans_misses")) == 1
    assert counters.get(("artifacts", "plans_hits")) == 1
    assert counters.get(("artifacts", "parameters_hits"), 0) > 0
    assert counters.get(("engine", "kernel_compiles"), 0) > 0


def test_cli_cache_stats_and_clear(capsys):
    from repro.cli import main

    with using_planes(artifacts="on"):
        STORE.clear()
        transcript(("cycle", 10, 3, 0), "rank2", "serial")
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "mode=on" in out
        assert "plans" in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert STORE.totals()["size"] == 0


def test_cli_solve_artifacts_flag(capsys):
    from repro.cli import main

    previous = planes()
    try:
        code = main([
            "solve", "--family", "cycle", "--n", "10", "--alphabet", "3",
            "--distributed", "--artifacts", "off",
        ])
        assert code == 0
        assert planes().artifacts == "off"
    finally:
        set_planes(artifacts=previous.artifacts)
    assert "solved" in capsys.readouterr().out
