"""The plan's round accounting against the committed T2 and T4 rows.

``benchmarks/results/T2.json`` (Corollary 1.2, rank 2) and ``T4.json``
(Corollary 1.4, rank 3) record the coloring rounds, schedule rounds
and palette of the distributed solves.  Every row is rebuilt here with
its bench's recipe (``bench_cor12_rounds.py``, ``bench_cor14_rounds.py``)
and its plan must give the committed numbers, so a change to the
coloring or the class grouping that moves a round shows up in tier-1
rather than only when the benches are regenerated.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
    partition_rounds_triples,
    random_regular_graph,
)
from repro.planes import using_planes
from repro.runtime import plan_for_instance

RESULTS = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"
)


def committed_rows(experiment):
    rows = json.loads((RESULTS / f"{experiment}.json").read_text())
    position = {"n": 0, "d": 0}
    cases = []
    for row in rows:
        # The d-sweep rows are in the bench's sweep order.
        index = position[row["sweep"]]
        position[row["sweep"]] += 1
        cases.append(
            pytest.param(
                row, index, id=f"{row['sweep']}-n{row['n']}-d{row['d']}"
            )
        )
    return cases


def t2_instance(row, _index):
    """``bench_cor12_rounds``: cycles for the n-sweep, random d-regular
    graphs (seed ``d``) for the d-sweep, alphabet 3."""
    if row["sweep"] == "n":
        graph = cycle_graph(row["n"])
    else:
        graph = random_regular_graph(row["n"], row["d"], seed=row["d"])
    return all_zero_edge_instance(graph, 3)


def t4_instance(row, index):
    """``bench_cor14_rounds``: cyclic triples for the n-sweep, ``t``
    partition rounds (seed ``t``, ``t = 1, 2, 3``) for the d-sweep,
    alphabet 5."""
    n = row["n"]
    if row["sweep"] == "n":
        return all_zero_triple_instance(n, cyclic_triples(n), 5)
    rounds = index + 1
    triples = partition_rounds_triples(n, rounds, seed=rounds)
    return all_zero_triple_instance(n, triples, 5)


def check_row(instance, row):
    assert row["n"] <= 1024
    assert instance.max_dependency_degree == row["d"]
    # Artifacts off: the plan is computed, not served from the store.
    with using_planes(artifacts="off"):
        plan = plan_for_instance(instance)
    assert plan.coloring_rounds == row["coloring_rounds"]
    assert plan.num_classes == row["schedule_rounds"]
    if "palette" in row:
        assert plan.palette == row["palette"]
    assert plan.coloring_rounds + plan.num_classes == row["total_rounds"]
    assert plan.local_rounds == (
        plan.coloring_rounds + 2 * plan.num_classes + 1
    )


@pytest.mark.parametrize("row, index", committed_rows("T2"))
def test_t2_rows_match_the_rank2_plan(row, index):
    check_row(t2_instance(row, index), row)


@pytest.mark.parametrize("row, index", committed_rows("T4"))
def test_t4_rows_match_the_rank3_plan(row, index):
    check_row(t4_instance(row, index), row)
