"""Unit tests for sequential drivers, orders and adaptive adversaries."""

import random

import pytest

from repro.errors import RankViolationError
from repro.core import (
    NaiveRankRFixer,
    Rank2Fixer,
    Rank3Fixer,
    construction_order,
    interleaved_order,
    lexicographic_chooser,
    make_random_chooser,
    max_pressure_chooser,
    min_pressure_chooser,
    random_order,
    reversed_order,
    run_with_adversary,
    solve,
)
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
)
from repro.lll import verify_solution


def _fresh_rank2():
    return all_zero_edge_instance(cycle_graph(10), 3)


def _fresh_rank3():
    return all_zero_triple_instance(9, cyclic_triples(9), 5)


class TestStaticOrders:
    def test_construction_order_lists_all(self):
        instance = _fresh_rank2()
        order = construction_order(instance)
        assert len(order) == instance.num_variables
        assert len(set(order)) == len(order)

    def test_reversed_order(self):
        instance = _fresh_rank2()
        assert reversed_order(instance) == list(
            reversed(construction_order(instance))
        )

    def test_random_order_is_permutation(self):
        instance = _fresh_rank2()
        order = random_order(instance, random.Random(0))
        assert sorted(map(repr, order)) == sorted(
            map(repr, construction_order(instance))
        )

    def test_interleaved_order_is_permutation(self):
        instance = _fresh_rank2()
        order = interleaved_order(instance, stride=3)
        assert sorted(map(repr, order)) == sorted(
            map(repr, construction_order(instance))
        )

    def test_all_static_orders_solve(self):
        for order_fn in (
            construction_order,
            reversed_order,
            lambda i: random_order(i, random.Random(7)),
            lambda i: interleaved_order(i, 4),
        ):
            instance = _fresh_rank2()
            result = solve(instance, order=order_fn(instance))
            assert verify_solution(instance, result.assignment).ok


class TestDispatch:
    def test_dispatches_rank2(self):
        instance = _fresh_rank2()
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_dispatches_rank3(self):
        instance = _fresh_rank3()
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_rejects_rank4(self):
        from repro.lll import LLLInstance
        from repro.probability import BadEvent, DiscreteVariable

        shared = DiscreteVariable("s", tuple(range(32)))
        events = [
            BadEvent.all_equal(f"E{i}", [shared], target=0) for i in range(4)
        ]
        with pytest.raises(RankViolationError):
            solve(LLLInstance(events))

    def test_order_and_chooser_are_exclusive(self):
        instance = _fresh_rank2()
        with pytest.raises(ValueError):
            solve(
                instance,
                order=construction_order(instance),
                chooser=lexicographic_chooser,
            )


CHOOSERS = (max_pressure_chooser, min_pressure_chooser, lexicographic_chooser)


def _adversary_cases(fixer_class):
    """Every chooser against ``fixer_class``, then against the naive fixer
    (the same adversaries drive any :class:`repro.core.fixer.Fixer`)."""
    return [
        pytest.param(fixer_class, chooser, id=chooser.__name__)
        for chooser in CHOOSERS
    ] + [
        pytest.param(NaiveRankRFixer, chooser, id=f"naive-{chooser.__name__}")
        for chooser in CHOOSERS
    ]


class TestAdversaries:
    @pytest.mark.parametrize(
        "fixer_class, chooser", _adversary_cases(Rank2Fixer)
    )
    def test_rank2_survives_adversary(self, fixer_class, chooser):
        instance = _fresh_rank2()
        fixer = fixer_class(instance)
        result = run_with_adversary(fixer, chooser)
        assert verify_solution(instance, result.assignment).ok

    @pytest.mark.parametrize(
        "fixer_class, chooser", _adversary_cases(Rank3Fixer)
    )
    def test_rank3_survives_adversary(self, fixer_class, chooser):
        instance = _fresh_rank3()
        fixer = fixer_class(instance)
        result = run_with_adversary(fixer, chooser)
        assert verify_solution(instance, result.assignment).ok

    def test_random_chooser(self):
        instance = _fresh_rank3()
        fixer = Rank3Fixer(instance)
        chooser = make_random_chooser(random.Random(3))
        result = run_with_adversary(fixer, chooser)
        assert verify_solution(instance, result.assignment).ok

    def test_solve_accepts_chooser(self):
        instance = _fresh_rank3()
        result = solve(instance, chooser=max_pressure_chooser)
        assert verify_solution(instance, result.assignment).ok

    def test_adversary_sees_partial_progress(self):
        instance = _fresh_rank2()
        fixer = Rank2Fixer(instance)
        seen_sizes = []

        def spy_chooser(live_fixer, unfixed):
            seen_sizes.append(len(unfixed))
            return unfixed[0]

        run_with_adversary(fixer, spy_chooser)
        assert seen_sizes == list(
            range(instance.num_variables, 0, -1)
        )
