"""LLL instances: events, variables, dependency graph, variable hypergraph.

An :class:`LLLInstance` bundles the bad events of a Lovász-Local-Lemma
instance, derives the structures the paper reasons about — the dependency
graph ``G`` (events adjacent iff they share a variable) and the variable
hypergraph ``H`` (one hyperedge per variable, connecting the events that
depend on it) — and exposes the parameters ``p`` (max event probability),
``d`` (max dependency degree) and ``r`` (rank: max events per variable).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.artifacts import STORE as _ARTIFACTS
from repro.artifacts.fingerprint import event_shape_key, instance_key
from repro.errors import ReproError, UnknownVariableError
from repro.lll.hypergraph import Hypergraph
from repro.probability import (
    BadEvent,
    DiscreteVariable,
    PartialAssignment,
    ProductSpace,
)


class LLLInstance:
    """A distributed LLL instance.

    Parameters
    ----------
    events:
        The bad events.  Event names must be unique.  If two events list a
        variable with the same name, the variable objects must be equal
        (same support and distribution) — they denote the *same* shared
        random variable.
    """

    def __init__(self, events: Sequence[BadEvent]) -> None:
        self._events: Tuple[BadEvent, ...] = tuple(events)
        if not self._events:
            raise ReproError("an LLL instance needs at least one event")
        names = [event.name for event in self._events]
        if len(set(names)) != len(names):
            raise ReproError("event names must be unique")
        self._event_by_name: Dict[Hashable, BadEvent] = {
            event.name: event for event in self._events
        }

        self._variables: Dict[Hashable, DiscreteVariable] = {}
        self._events_of_variable: Dict[Hashable, List[BadEvent]] = {}
        for event in self._events:
            for variable in event.variables:
                known = self._variables.get(variable.name)
                if known is None:
                    self._variables[variable.name] = variable
                    self._events_of_variable[variable.name] = []
                elif known != variable:
                    raise ReproError(
                        f"variable {variable.name!r} is declared with two "
                        f"different distributions"
                    )
                self._events_of_variable[variable.name].append(event)

        self._space = ProductSpace(tuple(self._variables.values()))
        self._dependency_graph: Optional[nx.Graph] = None
        self._hypergraph: Optional[Hypergraph] = None
        self._rank: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[BadEvent, ...]:
        """All bad events, in construction order."""
        return self._events

    @property
    def num_events(self) -> int:
        """Number of bad events."""
        return len(self._events)

    @property
    def variables(self) -> Tuple[DiscreteVariable, ...]:
        """All distinct variables, in first-appearance order."""
        return tuple(self._variables.values())

    @property
    def variable_names(self) -> Tuple[Hashable, ...]:
        """The names of :attr:`variables`, in the same order."""
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        """Number of distinct variables."""
        return len(self._variables)

    @property
    def space(self) -> ProductSpace:
        """The product probability space spanned by all variables."""
        return self._space

    def event(self, name: Hashable) -> BadEvent:
        """Look up an event by name."""
        try:
            return self._event_by_name[name]
        except KeyError:
            raise ReproError(f"no event named {name!r}") from None

    def variable(self, name: Hashable) -> DiscreteVariable:
        """Look up a variable by name."""
        try:
            return self._variables[name]
        except KeyError:
            raise UnknownVariableError(f"no variable named {name!r}") from None

    def events_of_variable(self, name: Hashable) -> Tuple[BadEvent, ...]:
        """All events whose scope contains the named variable."""
        try:
            return tuple(self._events_of_variable[name])
        except KeyError:
            raise UnknownVariableError(f"no variable named {name!r}") from None

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    @property
    def dependency_graph(self) -> nx.Graph:
        """The dependency graph ``G``: events adjacent iff they share a variable.

        A networkx view for analysis and tests; the solve path reads the
        same structure from :func:`repro.core.indexing.event_incidence`
        and builds no graph.  The returned graph is cached; treat it as
        read-only.
        """
        if self._dependency_graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(event.name for event in self._events)
            for events in self._events_of_variable.values():
                for i, first in enumerate(events):
                    for second in events[i + 1 :]:
                        if first.name != second.name:
                            graph.add_edge(first.name, second.name)
            self._dependency_graph = graph
        return self._dependency_graph

    @property
    def variable_hypergraph(self) -> Hypergraph:
        """The hypergraph ``H``: one hyperedge per variable over event names.

        The returned hypergraph is cached; treat it as read-only.
        """
        if self._hypergraph is None:
            hypergraph = Hypergraph()
            for event in self._events:
                hypergraph.add_node(event.name)
            for name, events in self._events_of_variable.items():
                hypergraph.add_edge(name, {event.name for event in events})
            self._hypergraph = hypergraph
        return self._hypergraph

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """``r``: the maximum number of events any single variable affects.

        Computed once: the instance is immutable.
        """
        if self._rank is None:
            self._rank = max(
                map(len, self._events_of_variable.values()), default=0
            )
        return self._rank

    @property
    def max_dependency_degree(self) -> int:
        """``d``: the maximum degree of the dependency graph.

        Served from the artifact store's parameters tier when enabled:
        ``d`` is a pure function of the instance shape, so a same-shape
        instance skips even the incidence build (precondition checks
        need only the scalar).  Otherwise it is the largest degree of
        the instance's :func:`~repro.core.indexing.event_incidence`,
        which fixer init and the plan read next, on either graph plane.
        """
        key = instance_key(self, "max-degree")
        cached = _ARTIFACTS.get("parameters", key)
        if cached is not None:
            return cached
        from repro.core.indexing import event_incidence

        degree = int(event_incidence(self).degrees.max(initial=0))
        _ARTIFACTS.put("parameters", key, degree)
        return degree

    def event_probabilities(self) -> Dict[Hashable, float]:
        """Unconditional probability of each event.

        Served from the artifact store's parameters tier when enabled —
        the probabilities are pure functions of the instance shape, so a
        same-shape instance solved earlier already paid the enumeration.
        On a miss, events of one shape key share one computed
        probability; with the plane off every event computes its own.
        Always returns a fresh dict; callers own (and may mutate) their
        copy.
        """
        key = instance_key(self, "probabilities")
        cached = _ARTIFACTS.get("parameters", key)
        if cached is not None:
            return dict(cached)
        if key is None:
            return {event.name: event.probability() for event in self._events}
        # A fingerprinted instance has every event's shape key memoised,
        # and events of one shape have one probability: compute it once.
        by_shape: Dict[bytes, float] = {}
        probabilities = {}
        for event in self._events:
            shape = event_shape_key(event)
            probability = by_shape.get(shape)
            if probability is None:
                probability = by_shape[shape] = event.probability()
            probabilities[event.name] = probability
        _ARTIFACTS.put("parameters", key, probabilities)
        return dict(probabilities)

    @property
    def max_event_probability(self) -> float:
        """``p``: the maximum unconditional probability of a bad event."""
        return max(self.event_probabilities().values())

    @property
    def criterion_margin(self) -> float:
        """``p·2^d``: below 1 exactly when the paper's criterion holds.

        Both factors are read through the artifact store's parameters
        tier when it is enabled, so after a solve this costs two hits.
        """
        return self.max_event_probability * 2.0**self.max_dependency_degree

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def occurring_events(self, assignment: PartialAssignment) -> Tuple[BadEvent, ...]:
        """The events that occur under a complete assignment."""
        return tuple(
            event for event in self._events if event.occurs(assignment)
        )

    def is_complete(self, assignment: PartialAssignment) -> bool:
        """Whether every variable of the instance is fixed."""
        return all(assignment.is_fixed(name) for name in self._variables)

    def avoids_all_events(self, assignment: PartialAssignment) -> bool:
        """Whether the complete assignment avoids every bad event."""
        return not self.occurring_events(assignment)

    def clear_caches(self) -> None:
        """Drop memoised conditional probabilities on every event."""
        for event in self._events:
            event.clear_cache()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A dictionary describing the instance's key parameters."""
        p = self.max_event_probability
        d = self.max_dependency_degree
        return {
            "num_events": self.num_events,
            "num_variables": self.num_variables,
            "rank": self.rank,
            "p": p,
            "d": d,
            "p_times_2^d": p * (2.0**d),
            "exponential_criterion": p * (2.0**d) < 1.0,
            "symmetric_lll_criterion": math.e * p * (d + 1) < 1.0,
        }

    def __repr__(self) -> str:
        return (
            f"LLLInstance({self.num_events} events, "
            f"{self.num_variables} variables, rank={self.rank})"
        )
