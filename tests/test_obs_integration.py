"""Integration tests: the obs layer wired through the library's hot paths."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import Rank3Fixer, audit_trace, solve, solve_rank2, solve_rank3
from repro.coloring import compute_vertex_coloring
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
)
from repro.lll import verify_solution
from repro.local_model import BroadcastValue, Network, Simulator
from repro.obs import check_events, recording, uninstall
from repro.runtime import SerialScheduler, plan_for_instance


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    uninstall()
    yield
    uninstall()


class TestFixerInstrumentation:
    def test_rank3_run_emits_one_fix_event_per_variable_in_trace_order(self):
        instance = all_zero_triple_instance(12, cyclic_triples(12), 5)
        with recording() as recorder:
            result = solve_rank3(instance)
        assert verify_solution(instance, result.assignment).ok
        events = recorder.memory.events
        check_events(events)
        fixes = [
            e
            for e in events
            if e["component"] == "fixer.rank3" and e["event"] == "fix"
        ]
        assert len(fixes) == len(instance.variables) == result.num_steps
        # One event per step, in exactly the order the fixer fixed them.
        assert [e["step"] for e in fixes] == list(range(len(fixes)))
        # The memory sink keeps raw payload objects, so variables match
        # the trace directly (tuples and all).
        assert [e["payload"]["variable"] for e in fixes] == [
            step.variable for step in result.steps
        ]
        # Aggregates match the run.
        assert recorder.counter_value("fixer.rank3", "rank3_fixes") == len(
            fixes
        )
        margins = recorder.histograms[
            ("fixer.rank3", "representability_margin")
        ]
        assert margins.count == len(fixes)
        durations = recorder.span_durations[("fixer.rank3", "fix")]
        assert len(durations) == len(fixes)
        assert all(d > 0 for d in durations)

    def test_rank2_run_emits_fix_events_and_slack_histogram(self):
        instance = all_zero_edge_instance(cycle_graph(8), 3)
        with recording() as recorder:
            result = solve_rank2(instance)
        fixes = [
            e
            for e in recorder.memory.events
            if e["component"] == "fixer.rank2" and e["event"] == "fix"
        ]
        assert len(fixes) == result.num_steps
        assert recorder.histograms[("fixer.rank2", "step_slack")].count == len(
            fixes
        )

    def test_solve_wraps_run_in_solve_span_and_events(self):
        instance = all_zero_triple_instance(9, cyclic_triples(9), 5)
        with recording() as recorder:
            solve(instance)
        events = recorder.memory.events
        kinds = [(e["component"], e["event"]) for e in events]
        assert ("fixer", "solve_start") in kinds
        assert ("fixer", "solve_end") in kinds
        solve_spans = recorder.span_durations[("fixer", "solve")]
        fix_spans = recorder.span_durations[("fixer.rank3", "fix")]
        assert len(solve_spans) == 1
        # The solve span contains every fix span.
        assert solve_spans[0] >= sum(fix_spans)

    @pytest.mark.parametrize(
        "instance_factory",
        [
            lambda: all_zero_edge_instance(cycle_graph(10), 3),
            lambda: all_zero_triple_instance(9, cyclic_triples(9), 5),
        ],
        ids=["rank2", "rank3"],
    )
    def test_plan_event_reports_local_rounds(self, instance_factory):
        instance = instance_factory()
        with recording() as recorder:
            solve(instance, scheduler=SerialScheduler())
        (plan_event,) = [
            e
            for e in recorder.memory.events
            if (e["component"], e["event"]) == ("runtime", "plan")
        ]
        expected = plan_for_instance(instance).local_rounds
        assert plan_event["payload"]["local_rounds"] == expected > 0

    def test_pstar_counters_track_edge_updates(self):
        instance = all_zero_triple_instance(9, cyclic_triples(9), 5)
        with recording() as recorder:
            fixer = Rank3Fixer(instance)
            fixer.run()
        # Every rank-3 fix rewrites the triangle's three edges.
        assert recorder.counter_value("pstar", "edge_updates") == 3 * len(
            instance.variables
        )
        assert ("pstar", "edge_phi_sum") in recorder.histograms


class TestSimulatorInstrumentation:
    def test_round_events_mirror_the_legacy_trace_api(self):
        network = Network(cycle_graph(6))
        with recording() as recorder:
            result = Simulator(
                network, BroadcastValue(2), record_trace=True
            ).run()
        rounds = [
            e
            for e in recorder.memory.events
            if e["component"] == "simulator" and e["event"] == "round"
        ]
        assert len(rounds) == result.rounds == len(result.trace)
        for event, legacy in zip(rounds, result.trace):
            assert event["round"] == legacy.round_number
            assert event["payload"]["messages"] == legacy.messages
            assert event["payload"]["active_senders"] == legacy.active_senders
            assert event["payload"]["payload_chars"] == legacy.payload_chars
        assert (
            recorder.counter_value("simulator", "messages")
            == result.messages_delivered
        )
        assert recorder.counter_value("simulator", "rounds") == result.rounds
        complete = [
            e
            for e in recorder.memory.events
            if e["event"] == "run_complete" and e["component"] == "simulator"
        ]
        assert len(complete) == 1
        assert complete[0]["payload"]["rounds"] == result.rounds

    def test_trace_api_unchanged_without_recorder(self):
        network = Network(cycle_graph(6))
        result = Simulator(network, BroadcastValue(2), record_trace=True).run()
        assert len(result.trace) == 2
        assert result.trace[0].payload_chars > 0
        bare = Simulator(network, BroadcastValue(2)).run()
        assert bare.trace == []

    def test_simulation_result_trace_default_is_fresh_list(self):
        from repro.local_model.simulator import SimulationResult

        first = SimulationResult(rounds=0, outputs={}, messages_delivered=0)
        second = SimulationResult(rounds=0, outputs={}, messages_delivered=0)
        assert first.trace == [] and second.trace == []
        first.trace.append("marker")
        assert second.trace == []  # no shared mutable default
        fields = {f.name: f for f in dataclasses.fields(SimulationResult)}
        assert fields["trace"].default_factory is list


class TestColoringInstrumentation:
    def test_phase_counters_match_coloring_result(self):
        network = Network(cycle_graph(8))
        with recording() as recorder:
            result = compute_vertex_coloring(network)
        assert (
            recorder.counter_value("coloring", "linial_rounds")
            == result.linial_rounds
        )
        assert (
            recorder.counter_value("coloring", "reduction_rounds")
            == result.reduction_rounds
        )
        phases = [
            e["payload"]["phase"]
            for e in recorder.memory.events
            if e["component"] == "coloring" and e["event"] == "phase"
        ]
        assert phases[0] == "linial"
        if result.reduction_rounds:
            assert "reduction" in phases
        assert ("coloring", "linial") in recorder.span_durations


class TestAuditInstrumentation:
    def test_clean_audit_emits_ok_report_and_no_discrepancies(self):
        instance = all_zero_triple_instance(9, cyclic_triples(9), 5)
        result = solve_rank3(instance)
        with recording() as recorder:
            report = audit_trace(instance, result)
        assert report.ok
        events = recorder.memory.events
        assert not [e for e in events if e["event"] == "discrepancy"]
        (summary,) = [e for e in events if e["event"] == "report"]
        assert summary["payload"]["ok"] is True
        assert summary["payload"]["steps"] == result.num_steps

    def test_corrupted_trace_emits_discrepancy_events(self):
        instance = all_zero_triple_instance(9, cyclic_triples(9), 5)
        result = solve_rank3(instance)
        # Tamper with one recorded increase so the audit must object.
        tampered_steps = list(result.steps)
        step = tampered_steps[0]
        tampered_steps[0] = dataclasses.replace(
            step, increases=tuple(i + 0.5 for i in step.increases)
        )
        tampered = dataclasses.replace(result, steps=tuple(tampered_steps))
        with recording() as recorder:
            report = audit_trace(instance, tampered)
        assert not report.ok
        discrepancies = [
            e
            for e in recorder.memory.events
            if e["component"] == "audit" and e["event"] == "discrepancy"
        ]
        assert len(discrepancies) == len(report.problems)
        assert recorder.counter_value("audit", "discrepancies") == len(
            report.problems
        )


class TestCliConsumers:
    def test_solve_obs_trace_then_stats_and_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "run.jsonl")
        assert (
            main(
                [
                    "solve",
                    "--family",
                    "triples",
                    "--n",
                    "12",
                    "--alphabet",
                    "5",
                    "--obs-trace",
                    path,
                ]
            )
            == 0
        )
        capsys.readouterr()

        assert main(["stats", path]) == 0
        report = capsys.readouterr().out
        assert "spans" in report
        assert "fixer.rank3" in report
        assert "p50" in report and "p95" in report
        assert "fixing steps: 12" in report
        assert "histogram fixer.rank3/representability_margin" in report

        assert main(["trace", path, "--check"]) == 0
        assert "schema OK" in capsys.readouterr().out

        assert (
            main(
                ["trace", path, "--component", "fixer.rank3", "--event", "fix"]
            )
            == 0
        )
        listing = capsys.readouterr().out
        assert "12 matching events" in listing

    def test_stats_rejects_malformed_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0}\n')
        assert main(["stats", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
