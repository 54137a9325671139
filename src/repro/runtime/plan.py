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
execute the plan it returns.  Both builders color the dependency graph
through the derived-coloring entry points
(:func:`~repro.coloring.compute_edge_coloring`,
:func:`~repro.coloring.compute_two_hop_coloring`) on its CSR form, or
on the networkx network on the ``reference`` graph plane, and assemble
the classes with one array grouping over
:func:`~repro.core.indexing.event_incidence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
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
from repro.errors import (
    RankViolationError,
    SimulationError,
    UnknownVariableError,
)
from repro.coloring import compute_edge_coloring, compute_two_hop_coloring
from repro.core.indexing import (
    event_incidence,
    indexed_csr,
    indexed_dependency_network,
)
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
def _plan(
    instance: LLLInstance,
    tag: str,
    kind: str,
    compute: Callable,
    claims_of: Callable,
    edgeless_palette: int,
) -> FixPlan:
    """The one schedule pipeline of Corollaries 1.2 and 1.4.

    Picks the substrate once — the CSR dependency graph on the
    ``vectorized`` graph plane, the networkx network on ``reference`` —
    and colors it with ``compute``, :func:`compute_edge_coloring` or
    :func:`compute_two_hop_coloring`, which recheck properness on their
    virtual graph.  ``claims_of(incidence, index, from_index, colors)``
    then gives each variable its cell as an int64 claim, plus a
    ``decode`` of a claim to its cell's ``(color, owner)``; ``index`` is
    each event's sorted-repr index.  An edgeless graph has no virtual
    nodes to color: its palette is ``edgeless_palette``, it costs no
    rounds, and every event node has color 0.

    The variables sorted by name ``repr``, then stably by claim, are
    the plan's ops in order, and each run of one claim is a cell.  Every
    color in the palette is a class, empty ones included, preceded by
    the rank-1 class (color ``-1``) when it has cells.
    """
    # Plans are frozen dataclasses of pure names, derived only from the
    # fingerprinted structure, so an equal-shape instance can reuse the
    # whole schedule — coloring included — without rebuilding it.
    plan_key = instance_key(instance, "plan", tag)
    cached = _ARTIFACTS.get("plans", plan_key)
    if cached is not None:
        return cached
    if planes().graph == "vectorized":
        graph, to_index, from_index = indexed_csr(instance)
    else:
        graph, to_index, from_index = indexed_dependency_network(instance)
    incidence = event_incidence(instance)
    index = np.fromiter(
        map(to_index.__getitem__, incidence.names),
        dtype=np.int64,
        count=incidence.num_events,
    )
    if len(incidence.edge_u):
        coloring = compute(graph)
        palette, rounds = coloring.palette, coloring.host_rounds
        colors = coloring.colors
    else:
        palette, rounds = edgeless_palette, 0
        colors = dict.fromkeys(range(incidence.num_events), 0)
    claims, decode = claims_of(incidence, index, from_index, colors)

    reprs = list(map(repr, instance.variable_names))
    by_name = np.asarray(
        sorted(range(len(reprs)), key=reprs.__getitem__), dtype=np.int64
    )
    rows = by_name[np.argsort(claims[by_name], kind="stable")]
    claims = claims[rows]
    ops = _fix_ops(incidence, instance.variable_names, rows)
    cell_starts = np.flatnonzero(
        np.diff(claims, prepend=claims[:1] - 1)
    ).tolist()
    bounds = cell_starts + [len(ops)]
    cells_by_color: Dict[int, List[FixCell]] = {}
    for claim, start, stop in zip(
        claims[cell_starts].tolist(), cell_starts, bounds[1:]
    ):
        color, owner = decode(claim)
        cells_by_color.setdefault(color, []).append(
            FixCell(owner=owner, ops=tuple(ops[start:stop]))
        )
    leading = cells_by_color.get(-1)
    classes = [ColorClass(color=-1, cells=tuple(leading))] if leading else []
    classes.extend(
        ColorClass(color=color, cells=tuple(cells_by_color.get(color, ())))
        for color in range(palette)
    )
    plan = FixPlan(
        kind=kind,
        classes=tuple(classes),
        palette=palette,
        coloring_rounds=rounds,
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


def _edge_claims(incidence, index, from_index, colors):
    """A rank-1 variable claims its event's cell in the leading class, a
    rank-2 variable its ``(min, max)`` index edge in the edge's color
    class, as one int64 ``(color, low, high)``."""
    num_events = incidence.num_events
    first = incidence.var_ptr[:-1]
    paired = np.diff(incidence.var_ptr) > 1
    # ``low == high`` is a rank-1 variable's event.
    low, high = np.sort(
        index[incidence.var_events[np.stack((first, first + paired))]], axis=0
    )
    edge_colors = np.full(len(first), -1, dtype=np.int64)
    edge_colors[paired] = np.fromiter(
        map(
            colors.__getitem__,
            zip(low[paired].tolist(), high[paired].tolist()),
        ),
        dtype=np.int64,
        count=int(paired.sum()),
    )
    # int64 while ``palette * E**2 < 2**63``, so E up to about 10**6.
    cell_space = num_events * num_events

    def decode(claim: int) -> Tuple[int, Hashable]:
        color, cell = divmod(claim, cell_space)
        low, high = divmod(cell, num_events)
        return color, (low, high) if color >= 0 else from_index[low]

    return edge_colors * cell_space + low * num_events + high, decode


def _node_claims(incidence, index, from_index, colors):
    """Each variable claims its event with the smallest ``(color,
    index)``, as one int64."""
    num_events = incidence.num_events
    node_colors = np.fromiter(
        map(colors.__getitem__, range(num_events)),
        dtype=np.int64,
        count=num_events,
    )
    event_keys = node_colors[index] * num_events + index
    claims = np.minimum.reduceat(
        event_keys[incidence.var_events], incidence.var_ptr[:-1]
    )

    def decode(claim: int) -> Tuple[int, Hashable]:
        color, owner = divmod(claim, num_events)
        return color, from_index[owner]

    return claims, decode


def build_plan_rank2(instance: LLLInstance) -> FixPlan:
    """The Corollary 1.2 schedule: edge color classes.

    Rank-1 variables form one leading class (color ``-1``) with a cell
    per host event; rank-2 variables form one cell per dependency edge,
    assigned to the edge's color class.  Cells are in sorted-owner
    order and ops in sorted-name order.

    Raises
    ------
    RankViolationError
        If a variable affects more than two events: it has no edge.
    """
    rank = instance.rank
    if rank > 2:
        raise RankViolationError(
            f"instance has rank {rank}, but the rank-2 plan supports at "
            f"most rank 2"
        )
    return _plan(
        instance, "rank2", "edge-coloring", compute_edge_coloring,
        _edge_claims, edgeless_palette=0,
    )


def build_plan_rank3(instance: LLLInstance) -> FixPlan:
    """The Corollary 1.4 schedule: 2-hop color classes.

    For each color, the active event nodes (sorted by index) each own a
    cell fixing all their variables not claimed by an earlier cell or
    class, so every variable is fixed once, by the first of its events
    to become active.  Ops within a cell are in sorted-name order.
    """
    return _plan(
        instance, "rank3", "two-hop-coloring", compute_two_hop_coloring,
        _node_claims, edgeless_palette=1,
    )


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
        order = instance.variable_names
    incidence = event_incidence(instance)
    try:
        rows = np.fromiter(
            map(incidence.row_of.__getitem__, order),
            dtype=np.int64,
            count=len(order),
        )
    except KeyError as missing:
        raise UnknownVariableError(
            f"no variable named {missing.args[0]!r}"
        ) from None
    ops = _fix_ops(incidence, instance.variable_names, rows)
    classes = tuple(
        ColorClass(
            color=position, cells=(FixCell(owner=op.variable, ops=(op,)),)
        )
        for position, op in enumerate(ops)
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
