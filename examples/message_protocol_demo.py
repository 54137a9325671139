"""Running the fixing phase as actual message passing.

`solve_distributed` runs the fixer along the instance's fix plan (a 2-hop
coloring at rank 3) and *accounts* LOCAL rounds; `solve_distributed_local`
runs the same plan all the way down: every node holds only its own
state, exchanges state/commit messages through the simulator, and fixes
its owned variables using the merged 1-hop view — two real
communication rounds per color class.  Same plan, same answer: this demo
runs them side by side and shows the protocol's message traffic.

Run:  python examples/message_protocol_demo.py
"""

from repro.core import solve_distributed, solve_distributed_local
from repro.generators import all_zero_triple_instance, cyclic_triples
from repro.lll import verify_solution


def main() -> None:
    n = 18
    triples = cyclic_triples(n)
    print(f"workload: {n} events, one 5-valued variable per triple, "
          f"bad = 'all incident variables are 0'")

    scheduled_instance = all_zero_triple_instance(n, triples, 5)
    scheduled = solve_distributed(scheduled_instance)
    print("\nscheduled simulation (round accounting):")
    print(f"  coloring {scheduled.coloring_rounds} + "
          f"schedule {scheduled.schedule_rounds} "
          f"(= palette {scheduled.palette}) "
          f"= {scheduled.total_rounds} rounds")
    print(f"  valid: {verify_solution(scheduled_instance, scheduled.assignment).ok}")

    protocol_instance = all_zero_triple_instance(n, triples, 5)
    protocol = solve_distributed_local(protocol_instance)
    print("\nmessage-level protocol (real state/commit messages):")
    print(f"  coloring {protocol.coloring_rounds} + "
          f"schedule {protocol.schedule_rounds} "
          f"(= 2 x palette {protocol.palette}) "
          f"= {protocol.total_rounds} rounds")
    print(f"  valid: {verify_solution(protocol_instance, protocol.assignment).ok}")
    print(f"  variables fixed through the protocol: "
          f"{len(protocol.fixing.steps)}")
    print(f"  max certified bound from the merged phi ledger: "
          f"{protocol.fixing.max_certified_bound:.6f} (< 1)")

    agreements = sum(
        1
        for variable in protocol_instance.variables
        if scheduled.assignment.get(variable.name)
        == protocol.assignment.get(variable.name)
    )
    print(f"\nassignments agree on {agreements}/{len(protocol_instance.variables)} "
          f"variables (one plan, one answer)")


if __name__ == "__main__":
    main()
