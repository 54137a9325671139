"""Differential guarantee of the structural-fingerprint artifact cache.

``SerialScheduler`` under ``REPRO_ARTIFACTS=off`` is the oracle: every
per-object cache keeps its exact legacy behaviour and nothing is shared
across objects.  With the plane ``on``, kernels, kernel stacks,
templates, index maps and plans are reused across instances of the same
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
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.artifacts import (
    LRUCache,
    STORE,
    artifacts_enabled,
    artifacts_mode,
    instance_fingerprint,
    set_artifacts_mode,
    using_artifacts,
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
from repro.probability import reset_engine_stats
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
    with using_artifacts("off"):
        reference = transcript(spec, kind, "serial")
    with using_artifacts("on"):
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
    with using_artifacts("on"):
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
    # The plan hit short-circuits the coloring, so the indexing tier is
    # never even consulted on the warm path — populated once, cold.
    assert len(STORE.tier("indexings")) >= 1


def test_different_shape_instances_do_not_collide():
    with using_artifacts("on"):
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
    with using_artifacts("on"):
        STORE.clear()
        plan = plan_for_instance(instance)
        fixer = Rank2Fixer(instance)
        make_scheduler("serial").execute(fixer, plan, instance)
    # Every fingerprint-keyed tier skips the instance.  (The stacks
    # tier may legitimately hold entries: stacked truth tables are
    # keyed on kernel *content* fingerprints, which exist for any
    # compiled kernel, hints or not.)
    for tier_name in ("kernels", "plans", "templates", "indexings"):
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
    with using_artifacts("off"):
        STORE.clear()
        STORE.put("plans", ("key",), "value")
        assert STORE.get("plans", ("key",)) is None
    totals = STORE.totals()
    assert totals == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}


def test_store_none_key_is_inert():
    with using_artifacts("on"):
        STORE.clear()
        STORE.put("plans", None, "value")
        assert STORE.get("plans", None) is None
        assert STORE.totals()["size"] == 0
        assert STORE.totals()["misses"] == 0


def test_store_capacity_override():
    store = ArtifactStore(capacities={"plans": 1})
    with using_artifacts("on"):
        store.put("plans", "a", 1)
        store.put("plans", "b", 2)
        assert store.get("plans", "a") is None
        assert store.get("plans", "b") == 2
    assert store.tier("plans").evictions == 1


# ----------------------------------------------------------------------
# Section-memo over-limit regression (satellite: MEMO_LIMIT freeze)
# ----------------------------------------------------------------------
def test_section_memo_is_lru_and_survives_tiny_limit(monkeypatch):
    from repro.core import vector

    spec = ("triples", 12, 6, 0)
    with using_artifacts("off"):
        reference = transcript(spec, "rank3", "serial")
    monkeypatch.setattr(vector, "MEMO_LIMIT", 1)
    with using_artifacts("on"):
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
    with using_artifacts("on"):
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
    with using_artifacts("off"):
        reference = transcript(spec, "rank3", "serial")
    monkeypatch.setenv("REPRO_FAULTS", "seed=3,crash=0.5,deadline=15")
    with using_artifacts("on"):
        STORE.clear()
        cold = transcript(spec, "rank3", "process",
                          max_workers=2, backoff_base=0.0)
        warm = transcript(spec, "rank3", "process",
                          max_workers=2, backoff_base=0.0)
    assert_identical(reference, cold, "faults/cold")
    assert_identical(reference, warm, "faults/warm")
    # Retried chunks re-derive nothing in the parent: one shape means
    # one plan and at most one indexing entry per kind — recovery never
    # double-populates.  (Templates lower inside the worker processes'
    # own stores, so the parent tier stays empty on this backend.)
    assert len(STORE.tier("plans")) == 1
    assert len(STORE.tier("indexings")) <= 2
    assert len(STORE.tier("templates")) <= 1


# ----------------------------------------------------------------------
# Mode plumbing and CLI
# ----------------------------------------------------------------------
def test_artifacts_mode_plumbing():
    previous = artifacts_mode()
    try:
        assert set_artifacts_mode("off") == previous
        assert artifacts_mode() == "off"
        assert not artifacts_enabled()
        with using_artifacts("on"):
            assert artifacts_enabled()
        assert artifacts_mode() == "off"
        with pytest.raises(ReproError):
            set_artifacts_mode("maybe")
    finally:
        set_artifacts_mode(previous)


def test_capacity_env_parse_rejects_garbage(monkeypatch):
    from repro.artifacts.store import CAPACITY_ENV

    monkeypatch.setenv(CAPACITY_ENV, "plans=banana")
    store = ArtifactStore()
    with pytest.raises(ReproError):
        store.tier("plans")


def test_capacity_env_override(monkeypatch):
    from repro.artifacts.store import CAPACITY_ENV

    monkeypatch.setenv(CAPACITY_ENV, "plans=7, kernels=9")
    store = ArtifactStore()
    assert store.tier("plans").capacity == 7
    assert store.tier("kernels").capacity == 9
    assert store.tier("templates").capacity == 128


def test_scheduler_publishes_artifact_stats():
    from repro.obs import recording

    spec = ("cycle", 10, 3, 0)
    with using_artifacts("on"):
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

    with using_artifacts("on"):
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

    previous = artifacts_mode()
    try:
        code = main([
            "solve", "--family", "cycle", "--n", "10", "--alphabet", "3",
            "--distributed", "--artifacts", "off",
        ])
        assert code == 0
        assert artifacts_mode() == "off"
    finally:
        set_artifacts_mode(previous)
    assert "solved" in capsys.readouterr().out
