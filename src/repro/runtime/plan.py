"""Fix plans: the schedule of a distributed LLL run as a data structure.

A :class:`FixPlan` is an ordered sequence of :class:`ColorClass`\\ es;
each class holds :class:`FixCell`\\ s — one per scheduling unit (a
dependency edge in the rank-2 algorithm, an event node in the rank-3
algorithm) — and each cell an ordered tuple of :class:`FixOp`\\ s, the
individual variable fixings with their 1-hop read sets.

The structural invariant that makes parallel execution sound: within a
class, distinct cells have disjoint read sets (``read_events``).  A
variable only appears in the scopes of its own events, which are exactly
its op's read set, so decisions in different cells of one class read and
write disjoint state and commute.  Every :class:`ColorClass` asserts this
when it is constructed instead of trusting the coloring.

:func:`plan_for_instance` is the one schedule of the fixing phase:
the serial oracle, the process backend, :mod:`repro.core.distributed`
and the message-level protocol of :mod:`repro.core.local_protocol` all
execute the plan it returns.  The builders read the instance's
dependency structure from :func:`~repro.core.indexing.event_incidence`
(the colorings from its CSR form, or from the networkx network on the
``reference`` graph plane).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.artifacts.fingerprint import instance_key
from repro.artifacts.store import STORE as _ARTIFACTS
from repro.errors import SimulationError
from repro.coloring import (
    compute_edge_coloring,
    compute_two_hop_coloring,
    require_proper_edge_coloring,
    require_two_hop_coloring,
)
from repro.core.indexing import event_incidence, indexed_dependency_network
from repro.graph.csr import sort_unique
from repro.lll.instance import LLLInstance
from repro.planes import planes


@dataclass(frozen=True)
class FixOp:
    """One variable fixing, with its 1-hop read set.

    The read set of an op is exactly the set of its affected events: a
    decision reads those events' conditional probabilities and the
    bookkeeping on their shared edges, and writes the same — nothing
    else.
    """

    #: Name of the variable to fix.
    variable: Hashable
    #: Names of the affected events, in bookkeeping order.
    events: Tuple[Hashable, ...]

    @property
    def rank(self) -> int:
        """Number of events the fixing touches."""
        return len(self.events)


@dataclass(frozen=True)
class FixCell:
    """A sequential run of ops owned by one scheduling unit.

    In the rank-2 plan a cell is a dependency edge (or an event node for
    the rank-1 round); in the rank-3 plan a cell is an event node of the
    active color.  Ops within a cell may share events and therefore
    execute strictly in order; ops of *different* cells in the same
    class never share an event.
    """

    #: The scheduling unit: an edge key ``(u_index, v_index)`` or an
    #: event name.
    owner: Hashable
    #: The fixings, in commit order.
    ops: Tuple[FixOp, ...]

    @property
    def read_events(self) -> FrozenSet[Hashable]:
        """Union of the ops' event names — the cell's 1-hop read set."""
        names: Set[Hashable] = set()
        for op in self.ops:
            names.update(op.events)
        return frozenset(names)


@dataclass(frozen=True)
class ColorClass:
    """One round of the schedule: independent cells of a single color.

    Construction raises :class:`~repro.errors.SimulationError` unless
    the cells' read sets are pairwise disjoint.  A class is frozen, so
    this one check covers every later execute of it, including replays
    of a plan served from the ``plans`` artifact tier.
    """

    #: The color index (``-1`` for the rank-1 pre-round of the rank-2
    #: algorithm, which precedes the edge coloring).
    color: int
    #: The cells, in deterministic merge order.
    cells: Tuple[FixCell, ...]

    def __post_init__(self) -> None:
        if len(self.cells) < 2:
            return
        owner: Dict[Hashable, int] = {}
        for index, cell in enumerate(self.cells):
            for op in cell.ops:
                for name in op.events:
                    if owner.setdefault(name, index) != index:
                        raise SimulationError(
                            f"schedule conflict in color class "
                            f"{self.color}: event {name!r} read by two cells"
                        )

    @property
    def num_ops(self) -> int:
        """Total fixings in the class."""
        return sum(len(cell.ops) for cell in self.cells)

    @property
    def span(self) -> int:
        """Length of the longest cell — the class's critical path."""
        return max((len(cell.ops) for cell in self.cells), default=0)


@dataclass(frozen=True)
class FixPlan:
    """The full schedule: ordered color classes plus round accounting."""

    #: ``"edge-coloring"`` (rank 2), ``"two-hop-coloring"`` (rank 3) or
    #: ``"serial"`` (an explicit order with no parallel structure).
    kind: str
    #: The classes, in execution order.
    classes: Tuple[ColorClass, ...]
    #: Size of the coloring palette that produced the classes.
    palette: int
    #: LOCAL rounds the coloring phase cost (host-graph rounds).
    coloring_rounds: int = 0

    @property
    def num_classes(self) -> int:
        """Number of schedule rounds (color classes)."""
        return len(self.classes)

    @property
    def local_rounds(self) -> int:
        """LOCAL rounds of the message-level run of this plan.

        The coloring rounds, two rounds per class (each class's owners
        decide, then push their fixings and phi writes one hop), and one
        pre-round exchanging event descriptions — the count
        :func:`~repro.core.local_protocol.solve_distributed_local`
        charges.
        """
        return self.coloring_rounds + 2 * self.num_classes + 1

    @property
    def num_cells(self) -> int:
        """Total scheduling units across all classes."""
        return sum(len(cls.cells) for cls in self.classes)

    @property
    def num_ops(self) -> int:
        """Total variable fixings in the plan."""
        return sum(cls.num_ops for cls in self.classes)

    @property
    def class_sizes(self) -> Tuple[int, ...]:
        """Op count of each class, in execution order."""
        return tuple(cls.num_ops for cls in self.classes)

    @property
    def critical_path(self) -> int:
        """Fixings on the longest dependency chain: ``sum of class spans``.

        With unboundedly many workers, a class completes after its
        longest cell; the plan's wall-clock lower bound (in op units) is
        the sum of those spans.
        """
        return sum(cls.span for cls in self.classes)

    def variables(self) -> Iterator[Hashable]:
        """Every scheduled variable, in serial plan order."""
        for cls in self.classes:
            for cell in cls.cells:
                for op in cell.ops:
                    yield op.variable


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _op_for(instance: LLLInstance, variable_name: Hashable) -> FixOp:
    return FixOp(
        variable=variable_name,
        events=tuple(
            event.name
            for event in instance.events_of_variable(variable_name)
        ),
    )


def _rank2_coloring(instance: LLLInstance):
    """Indexing plus the validated edge coloring.

    On the vectorized backend the dependency graph never leaves CSR
    form: the coloring runs on the CSR line graph and properness is
    re-checked with one array comparison.  The reference branch keeps
    the original networkx pipeline.  Returns ``(to_index, palette,
    coloring_rounds, colors)``; an edgeless graph has an empty palette.
    """
    if planes().graph == "vectorized":
        from repro.core.indexing import indexed_csr
        from repro.graph import (
            edge_coloring_with_arrays,
            validate_proper_vertex_arrays,
        )

        csr, to_index, _from_index = indexed_csr(instance)
        if csr.num_edges == 0:
            return to_index, 0, 0, {}
        derived, colors_array, line, _eu, _ev = edge_coloring_with_arrays(
            csr
        )
        # Defense-in-depth recheck, as on the reference branch: adjacent
        # line-graph nodes are exactly edges sharing an endpoint.
        validate_proper_vertex_arrays(line, colors_array)
        return to_index, derived.palette, derived.host_rounds, derived.colors

    network, to_index, _from_index = indexed_dependency_network(instance)
    if network.graph.number_of_edges() == 0:
        return to_index, 0, 0, {}
    coloring = compute_edge_coloring(network)
    require_proper_edge_coloring(network.graph, coloring.colors)
    return to_index, coloring.palette, coloring.host_rounds, coloring.colors


def _rank3_coloring(instance: LLLInstance):
    """Indexing plus the validated 2-hop coloring.

    Same shape as :func:`_rank2_coloring`; the vectorized branch
    validates by checking properness on the CSR square graph (adjacency
    in ``G^2`` is exactly "within distance two").  Returns
    ``(to_index, from_index, palette, coloring_rounds, colors)`` with
    ``colors`` an int64 array over sorted-repr indices; an edgeless
    graph is one class of every node.
    """
    if planes().graph == "vectorized":
        from repro.core.indexing import indexed_csr
        from repro.graph import (
            two_hop_coloring_with_arrays,
            validate_proper_vertex_arrays,
        )

        csr, to_index, from_index = indexed_csr(instance)
        if csr.num_edges == 0:
            return to_index, from_index, 1, 0, np.zeros(
                len(from_index), dtype=np.int64
            )
        derived, colors, square = two_hop_coloring_with_arrays(csr)
        validate_proper_vertex_arrays(square, colors)
        return (
            to_index, from_index, derived.palette, derived.host_rounds, colors
        )

    network, to_index, from_index = indexed_dependency_network(instance)
    if network.graph.number_of_edges() == 0:
        return to_index, from_index, 1, 0, np.zeros(
            len(from_index), dtype=np.int64
        )
    coloring = compute_two_hop_coloring(network)
    require_two_hop_coloring(network.graph, coloring.colors)
    colors = np.fromiter(
        map(coloring.colors.__getitem__, range(len(from_index))),
        dtype=np.int64,
        count=len(from_index),
    )
    return (
        to_index, from_index, coloring.palette, coloring.host_rounds, colors
    )


def build_plan_rank2(instance: LLLInstance) -> FixPlan:
    """The Corollary 1.2 schedule: edge color classes.

    Rank-1 variables form one leading class (color ``-1``) with a cell
    per host event; rank-2 variables form one cell per dependency edge,
    assigned to the edge's color class.  Cells are in sorted-owner
    order and ops in sorted-name order.
    """
    # Plans are frozen dataclasses of pure names, derived only from the
    # fingerprinted structure, so an equal-shape instance can reuse the
    # whole schedule — coloring included — without rebuilding it.
    plan_key = instance_key(instance, "plan", "rank2")
    cached = _ARTIFACTS.get("plans", plan_key)
    if cached is not None:
        return cached
    to_index, palette, coloring_rounds, colors = _rank2_coloring(instance)

    singles_by_event: Dict[Hashable, List[Hashable]] = {}
    by_edge: Dict[Tuple[int, int], List[Hashable]] = {}
    for variable in instance.variables:
        events = instance.events_of_variable(variable.name)
        if len(events) == 1:
            singles_by_event.setdefault(events[0].name, []).append(
                variable.name
            )
        else:
            u = to_index[events[0].name]
            v = to_index[events[1].name]
            key = (min(u, v), max(u, v))
            by_edge.setdefault(key, []).append(variable.name)

    classes: List[ColorClass] = []
    if singles_by_event:
        cells = tuple(
            FixCell(
                owner=event_name,
                ops=tuple(
                    _op_for(instance, name)
                    for name in sorted(names, key=repr)
                ),
            )
            for event_name, names in sorted(
                singles_by_event.items(), key=lambda item: repr(item[0])
            )
        )
        classes.append(ColorClass(color=-1, cells=cells))
    # One grouping pass over the sorted edges instead of a full rescan
    # per color; class contents and cell order are unchanged (cells stay
    # in sorted-edge order within each class).
    cells_by_color: Dict[int, List[FixCell]] = {}
    for edge_key, names in sorted(by_edge.items()):
        if not names:
            continue
        color = colors.get(edge_key)
        cells_by_color.setdefault(color, []).append(
            FixCell(
                owner=edge_key,
                ops=tuple(
                    _op_for(instance, name)
                    for name in sorted(names, key=repr)
                ),
            )
        )
    for color in range(palette):
        classes.append(
            ColorClass(color=color, cells=tuple(cells_by_color.get(color, ())))
        )

    plan = FixPlan(
        kind="edge-coloring",
        classes=tuple(classes),
        palette=palette,
        coloring_rounds=coloring_rounds,
    )
    _ARTIFACTS.put("plans", plan_key, plan)
    return plan


def _fix_ops(incidence, variable_names, rows: np.ndarray) -> List[FixOp]:
    """The ops fixing variable ``rows``, events in bookkeeping order.

    Built per rank from whole event-name columns of the incidence.
    """
    starts = incidence.var_ptr[rows]
    ranks = incidence.var_ptr[rows + 1] - starts
    names = incidence.names
    events = np.empty(len(rows), dtype=object)
    for rank in sort_unique(ranks).tolist():
        members = np.flatnonzero(ranks == rank)
        columns = [
            map(
                names.__getitem__,
                incidence.var_events[starts[members] + position].tolist(),
            )
            for position in range(rank)
        ]
        events[members] = np.fromiter(
            zip(*columns), dtype=object, count=len(members)
        )
    return list(
        map(
            FixOp,
            map(variable_names.__getitem__, rows.tolist()),
            events.tolist(),
        )
    )


def build_plan_rank3(instance: LLLInstance) -> FixPlan:
    """The Corollary 1.4 schedule: 2-hop color classes.

    For each color, the active event nodes (sorted by index) each own a
    cell fixing all their variables not claimed by an earlier cell or
    class, so every variable is fixed once, by the first of its events
    to become active.  Ops within a cell are in sorted-name order.

    Built by array grouping over the instance's
    :func:`~repro.core.indexing.event_incidence`: each variable is
    claimed by its event with the smallest ``(color, index)``, and the
    variables sorted by claim, then by name ``repr``, are the plan's
    ops in order.
    """
    plan_key = instance_key(instance, "plan", "rank3")
    cached = _ARTIFACTS.get("plans", plan_key)
    if cached is not None:
        return cached
    to_index, from_index, palette, coloring_rounds, colors = _rank3_coloring(
        instance
    )
    incidence = event_incidence(instance)
    num_events = incidence.num_events
    index = np.fromiter(
        map(to_index.__getitem__, incidence.names),
        dtype=np.int64,
        count=num_events,
    )
    event_keys = colors[index] * num_events + index
    claims = np.minimum.reduceat(
        event_keys[incidence.var_events], incidence.var_ptr[:-1]
    )
    reprs = list(map(repr, instance.variable_names))
    by_name = np.asarray(
        sorted(range(len(reprs)), key=reprs.__getitem__), dtype=np.int64
    )
    rows = by_name[np.argsort(claims[by_name], kind="stable")]
    claims = claims[rows]
    ops = _fix_ops(incidence, instance.variable_names, rows)

    cell_starts = np.flatnonzero(
        np.diff(claims, prepend=np.int64(-1)) != 0
    ).tolist()
    bounds = cell_starts + [len(ops)]
    cells_by_color: Dict[int, List[FixCell]] = {}
    for claim, start, stop in zip(
        claims[cell_starts].tolist(), cell_starts, bounds[1:]
    ):
        color, owner = divmod(claim, num_events)
        cells_by_color.setdefault(color, []).append(
            FixCell(owner=from_index[owner], ops=tuple(ops[start:stop]))
        )
    classes = tuple(
        ColorClass(color=color, cells=tuple(cells_by_color.get(color, ())))
        for color in range(palette)
    )

    plan = FixPlan(
        kind="two-hop-coloring",
        classes=classes,
        palette=palette,
        coloring_rounds=coloring_rounds,
    )
    _ARTIFACTS.put("plans", plan_key, plan)
    return plan


def build_serial_plan(
    instance: LLLInstance,
    order: Optional[Sequence[Hashable]] = None,
) -> FixPlan:
    """A degenerate plan: one class per op, in the given (or declaration)
    order.

    No parallel structure is claimed — each class holds a single
    one-op cell, so every scheduler backend degenerates to the same
    serial execution.  Used by the static-order sequential solver.
    """
    if order is None:
        order = [variable.name for variable in instance.variables]
    classes = tuple(
        ColorClass(
            color=position,
            cells=(
                FixCell(owner=name, ops=(_op_for(instance, name),)),
            ),
        )
        for position, name in enumerate(order)
    )
    return FixPlan(
        kind="serial",
        classes=classes,
        palette=len(classes),
        coloring_rounds=0,
    )


def build_resampling_round(
    instance: LLLInstance, occurring: Set[Hashable]
) -> ColorClass:
    """One parallel round of distributed Moser–Tardos as a color class.

    The cells are the occurring events that are local minima (by name)
    among their occurring dependency neighbors — the classic independent
    selection — and each cell's ops are the owner's scope variables.
    Two selected events are never dependency-adjacent (each would have
    to precede the other), so their scopes are disjoint and the cells
    can resample in parallel.  Each op's read set is just the owner
    event: resampling reads no bookkeeping, only the scope.
    """
    graph = instance.dependency_graph
    selected = sorted(
        (
            name
            for name in occurring
            if all(
                repr(name) < repr(neighbor)
                for neighbor in graph.neighbors(name)
                if neighbor in occurring
            )
        ),
        key=repr,
    )
    cells = tuple(
        FixCell(
            owner=name,
            ops=tuple(
                FixOp(variable=variable_name, events=(name,))
                for variable_name in instance.event(name).scope_names
            ),
        )
        for name in selected
    )
    return ColorClass(color=0, cells=cells)


def plan_for_instance(instance: LLLInstance) -> FixPlan:
    """Dispatch to the rank-2 or rank-3 plan builder by instance rank."""
    if instance.rank <= 2:
        return build_plan_rank2(instance)
    return build_plan_rank3(instance)
