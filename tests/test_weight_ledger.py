"""The rank-2 and naive weight ledger against the per-key dicts it replaced.

:class:`~repro.core.fixer.WeightLedgerFixer` keeps the Theorem 1.1 edge
ledger and the naive hyperedge ledger as one float64 array in the vector
template's slot layout, plus a first-touch number per key.  The
reference here is the ledger it replaced, kept as test code: one dict
per key, created when an op first looks the key up (a ``decide`` that is
never committed included), and a certificate that multiplies each
event's weights in the dicts' insertion order.  Floating-point products
depend on their order, so the bounds must agree ``float.hex`` for
``float.hex``, not just approximately.

Every case runs both fixers under ``recording()`` with the invariant
checked after every op, in one of these fixing orders: the plan (the
candidate on the vector decide plane, the reference per op), reversed
construction order, a seeded random order, the adversarial choosers,
the plan with one vector class forced onto the scalar path, and the
plan after an uncommitted ``decide`` of one variable.  Instances are
every generator family plus instances with several variables per edge
(or hyperedge) and events that no single fixing kills, so the weights
and their products carry full mantissas.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core import vector
from repro.core.naive_rankr import NaiveRankRFixer
from repro.core.rank2 import Rank2Fixer
from repro.core.sequential import (
    lexicographic_chooser,
    max_pressure_chooser,
    min_pressure_chooser,
    random_order,
    reversed_order,
    run_with_adversary,
)
from repro.errors import (
    CriterionViolationError,
    PStarViolationError,
    ReproError,
)
from repro.generators import (
    INSTANCE_FAMILIES,
    build_family_instance,
    cycle_graph,
    random_regular_graph,
)
from repro.lll import LLLInstance
from repro.obs import recording
from repro.planes import using_planes
from repro.probability import BadEvent, DiscreteVariable
from repro.runtime import make_scheduler, plan_for_instance

SETTINGS = settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)

ORDERS = (
    "plan",
    "reversed",
    "random",
    "max_pressure",
    "min_pressure",
    "lexicographic",
    "fallback",
    "decide_first",
)

CHOOSERS = {
    "max_pressure": max_pressure_chooser,
    "min_pressure": min_pressure_chooser,
    "lexicographic": lexicographic_chooser,
}


# ----------------------------------------------------------------------
# The reference: one dict per ledger key, in first-touch order
# ----------------------------------------------------------------------
class DictLedger:
    """The per-key entry dicts, with the certificate and the invariant
    check as they read them: entries in insertion order, each event's
    weights multiplied in that order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entries = {}

    def _ledger_ref(self, variable, names):
        if self.vector_kind == "rank2" and len(names) < 2:
            return None
        key = frozenset(names)
        weights = self.entries.get(key)
        if weights is None:
            weights = self.entries[key] = dict.fromkeys(names, 1.0)
        return weights

    def local_weights(self, variable, events):
        names = tuple(event.name for event in events)
        weights = self._ledger_ref(variable, names)
        if weights is None:
            return ()
        return tuple(weights[name] for name in names)

    def _write(self, ref, names, choice):
        for name, weight in zip(names, choice.new_weights):
            ref[name] = weight

    def decide_class(self, cells):
        # Per op only: the reference never takes the vector plane.
        return None

    def certified_bounds(self):
        bounds = dict(self.instance.event_probabilities())
        for weights in self.entries.values():
            for node, weight in weights.items():
                bounds[node] *= weight
        return bounds

    def check_invariant(self):
        for key, weights in self.entries.items():
            total = sum(weights.values())
            if total > len(key) + 1e-7:
                raise PStarViolationError(
                    f"{self.key_noun} {set(key)!r}: weights sum to {total} "
                    f"> {len(key)}"
                )
        bounds = self.certified_bounds()
        for event in self.instance.events:
            conditional = event.probability(self.assignment)
            if conditional > bounds[event.name] + 1e-7:
                raise PStarViolationError(
                    f"event {event.name!r}: conditional probability "
                    f"{conditional} exceeds certified bound "
                    f"{bounds[event.name]}"
                )


class Checkpoints:
    """Keeps the certified bounds of every invariant check, i.e. after
    every op: a finished run's bounds are mostly 0 (an event's weights
    telescope to its final conditional probability), the ones on the
    way are not."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checkpoints = []

    def check_invariant(self):
        super().check_invariant()
        self.checkpoints.append(hexes(self.certified_bounds()))


class CheckedRank2Fixer(Checkpoints, Rank2Fixer):
    pass


class CheckedNaiveFixer(Checkpoints, NaiveRankRFixer):
    pass


class DictRank2Fixer(Checkpoints, DictLedger, Rank2Fixer):
    pass


class DictNaiveFixer(Checkpoints, DictLedger, NaiveRankRFixer):
    pass


def hexes(bounds):
    return [(repr(name), bound.hex()) for name, bound in bounds.items()]


def make_fixer(kind, instance, reference):
    """A fixer checking its invariant after every op."""
    if kind == "rank2":
        cls = DictRank2Fixer if reference else CheckedRank2Fixer
        return cls(instance, validate_invariant=True)
    fixer = (DictNaiveFixer if reference else CheckedNaiveFixer)(instance)
    # The naive fixer takes no ``validate_invariant``; its commit loop
    # reads the same flag.
    fixer._validate = True
    return fixer


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def threshold_instance(graph, per_edge, seed, min_zeros=2, hyperedges=()):
    """Events bad iff at least ``min_zeros`` of their variables are 0.

    ``per_edge`` variables on every edge of ``graph`` and on every
    event triple of ``hyperedges``, plus one private variable per event,
    each with its own seeded distribution, so no single fixing decides
    an event and the weights are not round numbers.
    """
    rng = random.Random(seed)
    scopes = {node: [] for node in graph.nodes()}
    members = (
        [tuple(edge) for edge in graph.edges()]
        + list(hyperedges)
        + [(node,) for node in graph.nodes()]
    )
    for index, nodes in enumerate(members):
        for copy in range(per_edge):
            alphabet = rng.choice((2, 3))
            zero = rng.uniform(0.01, 0.07)
            rest = [rng.uniform(0.5, 1.5) for _ in range(alphabet - 1)]
            scale = (1.0 - zero) / sum(rest)
            variable = DiscreteVariable(
                ("x", index, copy),
                tuple(range(alphabet)),
                (zero,) + tuple(value * scale for value in rest),
            )
            for node in nodes:
                scopes[node].append(variable)
    events = []
    for node, scope in scopes.items():
        names = tuple(variable.name for variable in scope)

        def predicate(assignment, _names=names):
            zeros = sum(1 for name in _names if assignment[name] == 0)
            return zeros >= min_zeros

        events.append(BadEvent(node, scope, predicate))
    return LLLInstance(events)


def family_specs():
    families = st.tuples(
        st.just("family"),
        st.sampled_from(INSTANCE_FAMILIES),
        st.integers(min_value=6, max_value=12),
        st.integers(min_value=0, max_value=3),
    )
    shared = st.tuples(
        st.just("shared"),
        st.sampled_from(("cycle", "regular", "triples")),
        st.integers(min_value=5, max_value=9),
        st.integers(min_value=0, max_value=10**6),
    )
    return st.one_of(families, shared)


def build_instance(spec):
    source, family, n, seed = spec
    if source == "family":
        if family == "regular" and n % 2:
            n += 1
        alphabet = 5 if family == "triples" else 3
        return build_family_instance(family, n, alphabet=alphabet, seed=seed)
    if family == "cycle":
        return threshold_instance(cycle_graph(n), 2, seed)
    if family == "regular":
        return threshold_instance(
            random_regular_graph(2 * (n // 2), 3, seed=seed % 7), 2, seed
        )
    # Rank 3 for the naive fixer: edge pairs plus shared hyperedges.
    triples = [(i, (i + 1) % n, (i + 3) % n) for i in range(0, n, 2)]
    return threshold_instance(
        cycle_graph(n), 1, seed, min_zeros=3, hyperedges=triples
    )


def new_fixers(kind, instance):
    """The candidate and the reference, or skip an instance outside the
    fixer's criterion or rank."""
    if kind == "rank2" and instance.rank > 2:
        assume(False)
    try:
        return (
            make_fixer(kind, instance, reference=False),
            make_fixer(kind, instance, reference=True),
        )
    except CriterionViolationError:
        assume(False)


# ----------------------------------------------------------------------
# Fixing orders
# ----------------------------------------------------------------------
@contextmanager
def forced_fallback(class_index):
    """The ``class_index``-th batch decide raises a typed error, so that
    class falls back to the scalar per-op loop after opening its keys."""
    run_section = vector._run_section
    calls = []

    def flaky(state, section):
        calls.append(section)
        if len(calls) == class_index + 1:
            raise ReproError("forced fallback")
        return run_section(state, section)

    with mock.patch.object(vector, "_run_section", flaky):
        yield calls


def run_order(fixer, instance, order, pick):
    """Fix every variable of ``instance`` in ``order``; ``pick`` seeds the
    random order and chooses the fallback class and decided variable."""
    plan = plan_for_instance(instance)
    names = list(instance.variable_names)
    if order in ("plan", "fallback", "decide_first"):
        if order == "decide_first":
            fixer.decide(names[pick % len(names)])
        scheduler = make_scheduler("serial")
        if order == "fallback":
            with forced_fallback(pick % max(plan.num_classes, 1)):
                scheduler.execute(fixer, plan, instance)
        else:
            scheduler.execute(fixer, plan, instance)
        return fixer.run(order=())
    if order in CHOOSERS:
        return run_with_adversary(fixer, CHOOSERS[order])
    if order == "reversed":
        return fixer.run(reversed_order(instance))
    return fixer.run(random_order(instance, random.Random(pick)))


def transcript(fixer, instance, order, pick):
    with recording() as recorder:
        result = run_order(fixer, instance, order, pick)
    fixes = [
        event["payload"]
        for event in recorder.memory.events
        if event["event"] == "fix"
    ]
    return (
        dict(result.assignment.items()),
        result.steps,
        fixer.checkpoints + [hexes(result.certified_bounds)],
        fixes,
    )


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["rank2", "naive"])
@pytest.mark.parametrize("order", ORDERS)
@SETTINGS
@given(spec=family_specs(), pick=st.integers(min_value=0, max_value=10**6))
def test_bounds_equal_the_dict_ledger(kind, order, spec, pick):
    instance = build_instance(spec)
    candidate, reference = new_fixers(kind, instance)
    got = transcript(candidate, instance, order, pick)
    expected = transcript(reference, instance, order, pick)
    assert got[0] == expected[0], "assignments differ"
    assert got[1] == expected[1], "step records differ"
    assert got[2] == expected[2], "certified bounds differ"
    assert got[3] == expected[3], "fix events differ"


def test_the_vector_plane_and_the_fallback_engage():
    """The plan order really commits batches, and the forced fallback
    really sends a class through the scalar loop."""
    instance = build_instance(("shared", "regular", 8, 5))
    for order in ("plan", "fallback"):
        fixer = make_fixer("rank2", instance, reference=False)
        fast = using_planes(engine="compiled", decide="vector")
        with fast, recording() as recorder:
            run_order(fixer, instance, order, pick=1)
        batches = recorder.counter_value("runtime", "class_batches")
        fallbacks = [
            event for event in recorder.memory.events
            if event["event"] == "fallback"
        ]
        assert batches > 0
        assert len(fallbacks) == (order == "fallback")


@pytest.mark.parametrize("kind", ["rank2", "naive"])
@SETTINGS
@given(spec=family_specs(), pick=st.integers(min_value=0, max_value=10**6))
def test_a_corrupted_weight_fails_like_the_dict_ledger(kind, spec, pick):
    """Half way through the plan, raise one touched weight past its
    key's budget in both ledgers: ``check_invariant`` names the same key
    and total."""
    instance = build_instance(spec)
    candidate, reference = new_fixers(kind, instance)
    plan = plan_for_instance(instance)
    names = list(plan.variables())
    for fixer in (candidate, reference):
        fixer._validate = False
        for name in names[: len(names) // 2 + 1]:
            fixer.fix_variable(name)
    keys = candidate._touch_order()
    assume(len(keys))
    key = int(keys[pick % len(keys)])
    template = candidate._template
    start, stop = template.key_ptr[key], template.key_ptr[key + 1]
    slot = int(start + pick % (stop - start))
    event = template.names[int(template.slot_event[slot])]
    members = frozenset(
        template.names[index] for index in template.slot_event[start:stop]
    )
    value = (stop - start) + 0.75
    candidate._ledger[slot] = value
    reference.entries[members][event] = value
    with pytest.raises(PStarViolationError) as got:
        candidate.check_invariant()
    with pytest.raises(PStarViolationError) as expected:
        reference.check_invariant()
    assert str(got.value) == str(expected.value)
    assert "weights sum to" in str(got.value)
