"""Property P* bookkeeping (Definition 3.1 of the paper).

During the rank-3 fixing process, every edge ``e = {u, v}`` of the
dependency graph carries two non-negative values ``phi_e^u`` and
``phi_e^v`` with ``phi_e^u + phi_e^v <= 2``.  Property P* holds when,
additionally, every event's conditional probability (given the variables
fixed so far) is at most its initial probability times the product of the
values on its side of its incident edges.

The paper states the bound with the *global* maximum probability ``p``;
we track the per-event initial probability ``p_v`` instead, which is a
strictly stronger invariant maintained by exactly the same argument and
gives tighter certified bounds (``p_v * 2^deg(v)`` instead of
``p * 2^d``).

The edges and each event's neighbour order come from the instance's
:func:`~repro.core.indexing.event_incidence`, not from the networkx
``dependency_graph``: the phi entries are created in ``edges()`` order,
and an event's product multiplies its sides left to right in
``neighbors`` order, so bounds are bit-identical to a walk of the graph
while no graph is built.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from math import prod
from operator import mul
from typing import Dict, FrozenSet, Hashable, Tuple

import numpy as np

from repro.core.indexing import event_incidence
from repro.errors import PStarViolationError
from repro.lll.instance import LLLInstance
from repro.obs.recorder import PHI_BUCKETS, active as _obs_active
from repro.probability import PartialAssignment

#: Tolerance for edge-sum and probability-bound checks.
PSTAR_TOLERANCE = 1e-7

EdgeKey = FrozenSet


def checked_edge_write(
    entry: Dict[Hashable, float],
    u: Hashable,
    v: Hashable,
    value_u: float,
    value_v: float,
) -> None:
    """Validate, clamp and write one edge's phi pair through a live entry.

    This is :meth:`PStarState.set_edge` minus the key lookup and
    recorder hooks; :class:`~repro.core.rank3.Rank3Fixer` calls it on
    live edge entries for any value outside the certain range, and
    ``set_edge`` delegates here so the two cannot drift.

    Raises
    ------
    PStarViolationError
        If either value is outside ``[0, 2]`` or they sum to more than 2
        (beyond tolerance).  Values within tolerance are clamped so
        float dust cannot accumulate across steps.
    """
    for side, value in ((u, value_u), (v, value_v)):
        if value < -PSTAR_TOLERANCE or value > 2.0 + PSTAR_TOLERANCE:
            raise PStarViolationError(
                f"phi value {value} for edge {{{u!r}, {v!r}}} side "
                f"{side!r} is outside [0, 2]"
            )
    if value_u + value_v > 2.0 + PSTAR_TOLERANCE:
        raise PStarViolationError(
            f"edge {{{u!r}, {v!r}}}: values {value_u} + {value_v} > 2"
        )
    value_u = min(max(value_u, 0.0), 2.0)
    value_v = min(max(value_v, 0.0), 2.0)
    if value_u + value_v > 2.0:
        excess = value_u + value_v - 2.0
        if value_u >= value_v:
            value_u -= excess
        else:
            value_v -= excess
    entry[u] = value_u
    entry[v] = value_v


def observe_edge_write(recorder, entry: Dict[Hashable, float]) -> None:
    """Count one phi edge write and observe its pair sum."""
    recorder.count("pstar", "edge_updates")
    recorder.observe(
        "pstar", "edge_phi_sum", sum(entry.values()), bounds=PHI_BUCKETS
    )


class PStarState:
    """The ``phi`` function of Definition 3.1, with validation helpers."""

    def __init__(self, instance: LLLInstance) -> None:
        self._instance = instance
        incidence = event_incidence(instance)
        names = incidence.names
        self._index_of = dict(zip(names, count()))
        column = np.fromiter(names, dtype=object, count=len(names))
        first = column[incidence.edge_u].tolist()
        second = column[incidence.edge_v].tolist()
        entries = np.empty(len(first), dtype=object)
        entries[:] = [{u: 1.0, v: 1.0} for u, v in zip(first, second)]
        self._phi: Dict[EdgeKey, Dict[Hashable, float]] = dict(
            zip(map(frozenset, zip(first, second)), entries.tolist())
        )
        # Every event's side of its edges, flat in neighbour order:
        # slot ``k`` reads ``_refs[k][_owners[k]]``, and event ``i``'s
        # slots are ``_side_ptr[i]:_side_ptr[i + 1]``.
        self._refs = entries[incidence.nbr_edges].tolist()
        degrees = incidence.degrees.tolist()
        self._owners = list(chain.from_iterable(map(repeat, names, degrees)))
        self._side_ptr = incidence.nbr_ptr.tolist()
        # Via the instance (and hence the artifact store's parameters
        # tier): same-shape instances share one probability enumeration.
        self._initial_probabilities = instance.event_probabilities()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def initial_probabilities(self) -> Dict[Hashable, float]:
        """The unconditional probability of each event (a copy)."""
        return dict(self._initial_probabilities)

    @property
    def entries(self) -> Dict[EdgeKey, Dict[Hashable, float]]:
        """The live phi mapping, keyed by edge.

        Exposed for the batch decide plane, which snapshots whole color
        classes of edges at once; mutate through :meth:`set_edge` (or the
        rank-3 fixer's equivalent validated ledger write), never directly.
        """
        return self._phi

    def edge_key(self, u: Hashable, v: Hashable) -> EdgeKey:
        """The canonical key for the dependency edge ``{u, v}``."""
        key = frozenset((u, v))
        if key not in self._phi:
            raise PStarViolationError(
                f"no dependency edge between {u!r} and {v!r}"
            )
        return key

    def value(self, u: Hashable, v: Hashable, side: Hashable) -> float:
        """``phi_e^side`` for ``e = {u, v}``; ``side`` must be an endpoint."""
        key = self.edge_key(u, v)
        try:
            return self._phi[key][side]
        except KeyError:
            raise PStarViolationError(
                f"{side!r} is not an endpoint of edge {{{u!r}, {v!r}}}"
            ) from None

    def node_product(self, node: Hashable) -> float:
        """``prod over e containing node of phi_e^node``, left to right
        in neighbour order."""
        try:
            index = self._index_of[node]
        except KeyError:
            raise PStarViolationError(f"no event named {node!r}") from None
        start, stop = self._side_ptr[index], self._side_ptr[index + 1]
        product = 1.0
        for entry in self._refs[start:stop]:
            product *= entry[node]
        return product

    def certified_bound(self, node: Hashable) -> float:
        """``p_node * node_product(node)``: the P* probability bound."""
        # The product first: it names an unknown event.
        product = self.node_product(node)
        return self._initial_probabilities[node] * product

    def certified_bounds(self) -> Dict[Hashable, float]:
        """The P* bound of every event.

        The same left-to-right products as :meth:`node_product`, over
        one flat pass of the sides.
        """
        sides = list(map(dict.__getitem__, self._refs, self._owners))
        ptr = self._side_ptr
        products = map(prod, map(sides.__getitem__, map(slice, ptr, ptr[1:])))
        names = self._index_of
        initial = map(self._initial_probabilities.__getitem__, names)
        return dict(zip(names, map(mul, initial, products)))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def set_edge(
        self, u: Hashable, v: Hashable, value_u: float, value_v: float
    ) -> None:
        """Overwrite both values on edge ``{u, v}``.

        Raises
        ------
        PStarViolationError
            If either value is outside ``[0, 2]`` or they sum to more
            than 2 (beyond tolerance).  Values within tolerance are
            clamped so float dust cannot accumulate across steps.
        """
        key = self.edge_key(u, v)
        entry = self._phi[key]
        checked_edge_write(entry, u, v, value_u, value_v)
        recorder = _obs_active()
        if recorder is not None:
            observe_edge_write(recorder, entry)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self, assignment: PartialAssignment) -> None:
        """Assert property P* for the given partial assignment.

        Checks both subproperties of Definition 3.1: every edge's pair
        sums to at most 2, and every event's conditional probability is
        at most its certified bound.

        The per-event conditional probabilities are served by the active
        probability engine (compiled kernels by default), so a full P*
        audit costs one table query per event rather than one predicate
        enumeration — the check stays exact either way.

        Raises
        ------
        PStarViolationError
            If either subproperty fails beyond :data:`PSTAR_TOLERANCE`.
        """
        recorder = _obs_active()
        if recorder is not None:
            recorder.count("pstar", "invariant_checks")
        for key, sides in self._phi.items():
            total = sum(sides.values())
            if total > 2.0 + PSTAR_TOLERANCE:
                raise PStarViolationError(
                    f"edge {set(key)!r}: phi values sum to {total} > 2"
                )
        for event in self._instance.events:
            conditional = event.probability(assignment)
            bound = self.certified_bound(event.name)
            if conditional > bound + PSTAR_TOLERANCE:
                raise PStarViolationError(
                    f"event {event.name!r}: conditional probability "
                    f"{conditional} exceeds P* bound {bound}"
                )

    def snapshot(self) -> Dict[Tuple[Hashable, Hashable], float]:
        """A flat copy ``{(frozen edge, side): phi}`` for inspection/tests."""
        flat = {}
        for key, sides in self._phi.items():
            for side, value in sides.items():
                flat[(key, side)] = value
        return flat
