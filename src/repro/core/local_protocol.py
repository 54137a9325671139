"""A message-level LOCAL implementation of the distributed fixing phase.

:mod:`repro.core.distributed` executes a fix plan through the scheduler
backends and *accounts* rounds; this module goes one level deeper and
runs the same plan as an actual message-passing protocol on the
simulator — every node holds only its own state, and every piece of
information it uses provably arrived in a message.

**Protocol.**  Nodes are the events of the instance.  The schedule is
the runtime's :func:`repro.runtime.plan.plan_for_instance` — Corollary
1.2's edge color classes at rank 2, Corollary 1.4's 2-hop color classes
at rank 3 — and each cell of a class is committed by one node: its
owner event, or, for an edge cell, the edge's smaller endpoint.  The
schedule takes two rounds per class ``k``:

* **state round (2k+1):** every node broadcasts everything it knows —
  the fixed values of variables in its 1-hop view and its versioned
  ``phi`` ledger entries; receivers merge (higher version wins).
* **commit round (2k+2):** nodes owning a cell of class ``k`` fix its
  variables *locally* (the selection rules of
  :mod:`repro.core.selection` read only the merged 1-hop state), bump
  the versions of the ``phi`` entries they rewrite, and broadcast the
  updates; receivers merge.

Why two rounds per class suffice: a cell's ops read only the events
they affect and those events' shared ``phi`` entries, and the cells of
one class read disjoint events (:class:`~repro.runtime.plan.ColorClass`
checks this when it is built).  A value fixed in class ``k`` reaches
the committing node's neighbors in the same commit round and, through
their next state broadcast, every node at distance two by the start of
class ``k + 1``'s commit — which covers everything a later committer
reads about the events its cell affects.  So the protocol's run is the
plan's serial order, and its transcript equals the serial oracle's.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from repro.errors import SimulationError
from repro.core.distributed import DistributedResult
from repro.core.indexing import indexed_dependency_network
from repro.core.fixer import select_by_rank, step_record
from repro.core.results import FixingResult, StepRecord
from repro.lll.instance import LLLInstance
from repro.local_model.algorithm import LocalAlgorithm, NodeState
from repro.local_model.simulator import SimulationResult, Simulator
from repro.probability import PartialAssignment

#: phi ledger key: (sorted edge index pair, side index).
PhiKey = Tuple[Tuple[int, int], int]
#: phi ledger entry: (version, value).
PhiEntry = Tuple[int, float]


def _edge_key(i: int, j: int) -> Tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _ledger_sides(indices: Tuple[int, ...]) -> Tuple[PhiKey, ...]:
    """The phi keys an op on ``indices`` reads and writes, in the rank-3
    fixer's apply-slot order: ``()``, ``phi_ij^i, phi_ij^j`` or those
    followed by ``phi_ik^i, phi_ik^k, phi_jk^j, phi_jk^k``."""
    if len(indices) == 1:
        return ()
    if len(indices) == 2:
        i, j = indices
        edge = _edge_key(i, j)
        return ((edge, i), (edge, j))
    i, j, k = indices
    edge_ij, edge_ik = _edge_key(i, j), _edge_key(i, k)
    edge_jk = _edge_key(j, k)
    return (
        (edge_ij, i), (edge_ij, j),
        (edge_ik, i), (edge_ik, k),
        (edge_jk, j), (edge_jk, k),
    )


class LocalFixingProtocol(LocalAlgorithm):
    """The two-rounds-per-class fixing protocol (rank <= 3).

    Node input (a dict):

    * ``"owned"`` — ``{class index: [(variable, event_indices), ...]}``,
      the ops of the cells this node commits, in plan order;
    * ``"events_by_index"`` — the :class:`BadEvent` objects of the node
      itself and its neighbors (1-hop knowledge, exchanged in one
      pre-round that the wrapper accounts for);
    * ``"incident_edges"`` — dependency edges (index pairs) at the node.
    """

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise SimulationError("num_classes must be at least 1")
        self._num_classes = num_classes
        #: StepRecords from every commit, in simulator order (collected
        #: for reporting; not visible to the nodes).
        #: :func:`solve_distributed_local` reports them in plan order.
        self.records: List[StepRecord] = []

    @property
    def rounds_needed(self) -> int:
        """Two rounds per class."""
        return 2 * self._num_classes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, node: NodeState) -> None:
        node.memory["fixed"] = {}
        phi: Dict[PhiKey, PhiEntry] = {}
        for edge in node.input["incident_edges"]:
            for side in edge:
                phi[(edge, side)] = (0, 1.0)
        node.memory["phi"] = phi

    def send(self, node: NodeState, round_number: int) -> Dict[Hashable, Any]:
        if round_number % 2 == 1:
            # State round: broadcast the full local view.
            payload = {
                "kind": "state",
                "fixed": dict(node.memory["fixed"]),
                "phi": dict(node.memory["phi"]),
            }
            return {neighbor: payload for neighbor in node.neighbors}
        # Commit round for class (round_number // 2) - 1.
        ops = node.input["owned"].get(round_number // 2 - 1)
        if not ops:
            return {}
        payload = {"kind": "commit", **self._commit(node, ops)}
        return {neighbor: payload for neighbor in node.neighbors}

    def receive(self, node: NodeState, messages, round_number: int) -> None:
        for payload in messages.values():
            if payload is None:
                continue
            self._merge_fixed(node, payload["fixed"])
            self._merge_phi(node, payload["phi"])
        if round_number == self.rounds_needed:
            node.halt_with(
                {
                    "fixed": dict(node.memory["fixed"]),
                    "phi": dict(node.memory["phi"]),
                }
            )

    # ------------------------------------------------------------------
    # Local fixing
    # ------------------------------------------------------------------
    def _commit(self, node: NodeState, ops: List) -> Dict[str, Dict]:
        """Fix the ops of one owned cell using only local state.

        The selection rules answer each decision with one batch ``Inc``
        query per affected event (see :mod:`repro.core.selection`), so a
        commit round costs one table pass per (variable, event) pair
        under the compiled engine.  The local view is materialised as a
        :class:`PartialAssignment` once per commit and extended in place
        after each owned variable is fixed, instead of being rebuilt from
        the memory dict per variable.
        """
        new_fixed: Dict[Hashable, Hashable] = {}
        new_phi: Dict[PhiKey, PhiEntry] = {}
        events_by_index = node.input["events_by_index"]
        assignment = PartialAssignment(node.memory["fixed"])
        for variable, indices in ops:
            events = tuple(events_by_index[index] for index in indices)
            sides = _ledger_sides(indices)
            phi = [self._phi_value(node, edge, side) for edge, side in sides]
            if len(indices) < 3:
                weights = tuple(phi)
            else:
                weights = (phi[0] * phi[2], phi[1] * phi[4], phi[3] * phi[5])
            choice = select_by_rank(variable, events, weights, assignment)
            if sides:
                for (edge, side), value in zip(sides, choice.new_weights):
                    self._stage_phi(node, new_phi, edge, side, value)
            node.memory["fixed"][variable.name] = choice.value
            new_fixed[variable.name] = choice.value
            assignment.fix(variable, choice.value)
            self.records.append(
                step_record(
                    variable, tuple(event.name for event in events), choice
                )
            )
        return {"fixed": new_fixed, "phi": new_phi}

    def _phi_value(self, node: NodeState, edge, side: int) -> float:
        entry = node.memory["phi"].get((edge, side))
        if entry is None:
            # First contact with an edge between two neighbors whose state
            # has not mentioned it yet: it still carries its initial value.
            return 1.0
        return entry[1]

    def _stage_phi(
        self,
        node: NodeState,
        staged: Dict[PhiKey, PhiEntry],
        edge,
        side: int,
        value: float,
    ) -> None:
        """Write a phi update locally and stage it for broadcast."""
        key = (edge, side)
        old = node.memory["phi"].get(key, (0, 1.0))
        entry = (old[0] + 1, value)
        node.memory["phi"][key] = entry
        staged[key] = entry

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_fixed(node: NodeState, incoming: Dict) -> None:
        fixed = node.memory["fixed"]
        for name, value in incoming.items():
            existing = fixed.get(name, _MISSING)
            if existing is not _MISSING and existing != value:
                raise SimulationError(
                    f"node {node.identifier!r}: conflicting values for "
                    f"variable {name!r} ({existing!r} vs {value!r})"
                )
            fixed[name] = value

    @staticmethod
    def _merge_phi(node: NodeState, incoming: Dict) -> None:
        phi = node.memory["phi"]
        for key, (version, value) in incoming.items():
            current = phi.get(key)
            if current is None or current[0] < version:
                phi[key] = (version, value)
            elif current[0] == version and abs(current[1] - value) > 1e-9:
                raise SimulationError(
                    f"node {node.identifier!r}: conflicting phi entries "
                    f"for {key!r} at version {version}"
                )


_MISSING = object()


def solve_distributed_local(
    instance: LLLInstance,
    require_criterion=True,
    fault_plan=None,
) -> DistributedResult:
    """Run the full message-level distributed algorithm (rank <= 3).

    Runs :class:`LocalFixingProtocol` on the runtime's schedule
    (:func:`repro.runtime.plan.plan_for_instance`), merges the per-node
    outputs into a global assignment, and cross-checks consistency.  One
    extra round is charged on top of the plan's coloring rounds for the
    initial 1-hop exchange of event descriptions.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects message
    drops/duplications into the protocol simulation; the simulator's
    reliable-delivery layer recovers them, so the merged result is
    identical to the fault-free run.
    """
    from repro.lll.verify import check_preconditions
    from repro.runtime.plan import plan_for_instance

    check_preconditions(
        instance, max_rank=3, require_criterion=require_criterion
    )
    network, to_index, from_index = indexed_dependency_network(instance)
    plan = plan_for_instance(instance)

    # Assemble per-node inputs (the 1-hop knowledge a real execution
    # would gather in one pre-round, charged below).  A cell is
    # committed by its owner event or, for an edge cell, by the edge's
    # smaller endpoint, in the commit round of its class.
    edge_cells = plan.kind == "edge-coloring"
    owned: Dict[int, Dict[int, List]] = {index: {} for index in from_index}
    for class_index, color_class in enumerate(plan.classes):
        for cell in color_class.cells:
            ops = [
                (
                    instance.variable(op.variable),
                    tuple(to_index[name] for name in op.events),
                )
                for op in cell.ops
            ]
            node = min(ops[0][1]) if edge_cells else to_index[cell.owner]
            owned[node][class_index] = ops

    events_by_index = {
        to_index[event.name]: event for event in instance.events
    }
    inputs = {}
    for index in from_index:
        neighbor_indices = set(network.neighbors(index))
        neighbor_indices.add(index)
        inputs[index] = {
            "owned": owned[index],
            "events_by_index": {
                i: events_by_index[i] for i in neighbor_indices
            },
            "incident_edges": [
                _edge_key(index, neighbor)
                for neighbor in network.neighbors(index)
            ],
        }

    if plan.num_classes:
        protocol = LocalFixingProtocol(plan.num_classes)
        # The bandwidth profile (round_payload_chars) is part of this
        # entry point's reported result, so payload sizing is opted in.
        simulator = Simulator(
            network,
            protocol,
            inputs=inputs,
            track_payload=True,
            fault_plan=fault_plan,
        )
        result = simulator.run(max_rounds=protocol.rounds_needed + 1)
        committed = protocol.records
    else:
        # No event has a variable: nothing to fix, so no round runs.
        result = SimulationResult(rounds=0, outputs={}, messages_delivered=0)
        committed = []

    # Merge outputs and cross-check agreement between nodes.
    merged: Dict[Hashable, Hashable] = {}
    final_phi: Dict[PhiKey, PhiEntry] = {}
    for output in result.outputs.values():
        for name, value in output["fixed"].items():
            if name in merged and merged[name] != value:
                raise SimulationError(
                    f"nodes disagree on variable {name!r}"
                )
            merged[name] = value
        for key, entry in output["phi"].items():
            current = final_phi.get(key)
            if current is None or current[0] < entry[0]:
                final_phi[key] = entry

    assignment = PartialAssignment()
    for variable in instance.variables:
        if variable.name not in merged:
            raise SimulationError(
                f"protocol finished without fixing {variable.name!r}"
            )
        assignment.fix(variable, merged[variable.name])

    certified = {}
    for event in instance.events:
        index = to_index[event.name]
        bound = event.probability()
        for neighbor in network.neighbors(index):
            edge = _edge_key(index, neighbor)
            entry = final_phi.get((edge, index), (0, 1.0))
            bound *= entry[1]
        certified[event.name] = bound

    # Nodes of one class commit in simulator order; the trace lists
    # them in plan order, as the schedulers do.
    records = {record.variable: record for record in committed}
    fixing = FixingResult(
        assignment=assignment,
        steps=tuple(records[name] for name in plan.variables()),
        certified_bounds=certified,
    )
    return DistributedResult(
        fixing=fixing,
        coloring_rounds=plan.coloring_rounds + 1,  # +1: 1-hop pre-exchange
        schedule_rounds=result.rounds,
        palette=plan.palette,
        round_messages=result.round_messages,
        round_payload_chars=result.round_payload_chars,
    )
