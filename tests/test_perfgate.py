"""The perf-regression gate: metric policies, matching, failure modes."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    DEFAULT_TOLERANCE,
    compare_results,
    compare_rows,
)
from repro.analysis.perfgate import _metric_class
from repro.errors import ReproError


def statuses(verdicts):
    return {row.metric: row.status for row in verdicts}


# ----------------------------------------------------------------------
# Metric classification
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,baseline,candidate,expected",
    [
        ("identical_to_serial", True, True, "bool"),
        ("ok", True, 1, "bool"),
        ("speedup_vs_serial", 2.0, 1.9, "speedup"),
        ("overhead_pct", 1.0, 1.1, "overhead"),
        ("steps", 41, 41, "int"),
        ("best_seconds", 0.5, 0.6, "time"),
        ("wall_s", 0.5, 0.6, "time"),
        ("p99_ns", 100, 90, "time"),
        ("backend", "serial", "serial", "info"),
        ("note", None, 1.0, "info"),
        ("utilization", 0.9, 0.8, "info"),
    ],
)
def test_metric_class(name, baseline, candidate, expected):
    assert _metric_class(name, baseline, candidate) == expected


# ----------------------------------------------------------------------
# Row comparison policies
# ----------------------------------------------------------------------
def test_boolean_invariants_must_not_regress():
    base = {"identical_to_serial": True, "recovered": False}
    good = {"identical_to_serial": True, "recovered": True}
    bad = {"identical_to_serial": False, "recovered": False}
    assert statuses(compare_rows("EX", "k", base, good, 0.4)) == {
        "identical_to_serial": "ok",
        "recovered": "ok",  # false -> true is an improvement
    }
    verdicts = compare_rows("EX", "k", base, bad, 0.4)
    assert statuses(verdicts)["identical_to_serial"] == "fail"


def test_speedup_floor_and_overhead_ceiling():
    base = {"speedup": 2.0, "overhead_ratio": 1.0}
    inside = {"speedup": 1.3, "overhead_ratio": 1.3}
    outside = {"speedup": 1.1, "overhead_ratio": 1.5}
    assert statuses(compare_rows("EX", "k", base, inside, 0.4)) == {
        "speedup": "ok",
        "overhead_ratio": "ok",
    }
    verdicts = compare_rows("EX", "k", base, outside, 0.4)
    assert statuses(verdicts) == {
        "speedup": "fail",
        "overhead_ratio": "fail",
    }
    notes = {row.metric: row.note for row in verdicts}
    assert "floor" in notes["speedup"]
    assert "ceiling" in notes["overhead_ratio"]


def test_integer_counts_are_exact():
    verdicts = compare_rows("EX", "k", {"steps": 41}, {"steps": 42}, 0.4)
    assert statuses(verdicts) == {"steps": "fail"}
    assert "deterministic" in verdicts[0].note


def test_e9_warm_counts_are_exact():
    """The E9 warm row's tier and compile counts are gated exactly, and
    both committed E9 baselines carry them."""
    import pathlib

    base = {"solutions_hits": 50, "kernel_compiles": 0}
    assert statuses(compare_rows("E9", "k", base, dict(base), 0.4)) == {
        "solutions_hits": "ok",
        "kernel_compiles": "ok",
    }
    drifted = {"solutions_hits": 49, "kernel_compiles": 1}
    assert statuses(compare_rows("E9", "k", base, drifted, 0.4)) == {
        "solutions_hits": "fail",
        "kernel_compiles": "fail",
    }
    results = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
    for path in ("results/E9.json", "results/quick/E9.json"):
        rows = json.loads((results / path).read_text())
        (warm,) = [row for row in rows if row["phase"] == "warm"]
        assert warm["solutions_hits"] == warm["samples"]
        assert warm["kernel_compiles"] == 0


def test_times_and_strings_are_informational():
    verdicts = compare_rows(
        "EX",
        "k",
        {"best_seconds": 0.1, "backend": "serial"},
        {"best_seconds": 99.0, "backend": "process"},
        0.4,
    )
    assert statuses(verdicts) == {
        "best_seconds": "info",
        "backend": "info",
    }


def test_key_fields_and_missing_metrics_skipped():
    # "mode" is E5's key field: excluded from metric comparison.
    verdicts = compare_rows(
        "E5",
        "on",
        {"mode": "on", "events": 10, "gone": 1},
        {"mode": "on", "events": 10},
        0.4,
    )
    assert statuses(verdicts) == {"events": "ok", "gone": "skipped"}


# ----------------------------------------------------------------------
# Directory-level comparison
# ----------------------------------------------------------------------
def write_results(directory, experiment, rows):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{experiment}.json").write_text(json.dumps(rows))


def test_compare_results_pass_and_fail(tmp_path):
    baseline = tmp_path / "baseline"
    candidate = tmp_path / "candidate"
    rows = [{"experiment": "E5", "mode": "on", "events": 10,
             "trace_ok": True, "on_vs_off": 2.0}]
    write_results(baseline, "E5", rows)
    write_results(candidate, "E5", rows)
    report = compare_results(str(candidate), str(baseline))
    assert report.ok
    assert "PASS" in report.render()

    regressed = [{"experiment": "E5", "mode": "on", "events": 10,
                  "trace_ok": False, "on_vs_off": 2.0}]
    write_results(candidate, "E5", regressed)
    report = compare_results(str(candidate), str(baseline))
    assert not report.ok
    assert [row.metric for row in report.failures] == ["trace_ok"]
    assert "FAIL" in report.render()


def test_compare_results_missing_candidate_artifact_fails(tmp_path):
    baseline = tmp_path / "baseline"
    candidate = tmp_path / "candidate"
    candidate.mkdir()
    write_results(baseline, "E5", [{"experiment": "E5", "mode": "on"}])
    report = compare_results(str(candidate), str(baseline))
    assert not report.ok
    assert "missing" in report.failures[0].note


def test_compare_results_unmatched_rows_skip_but_zero_matches_fail(tmp_path):
    baseline = tmp_path / "baseline"
    candidate = tmp_path / "candidate"
    write_results(
        baseline, "E5",
        [{"mode": "on", "events": 1}, {"mode": "off", "events": 2}],
    )
    # One row matches, the other is absent (quick mode restricting
    # backends is the motivating case): skip, don't fail.
    write_results(candidate, "E5", [{"mode": "on", "events": 1}])
    report = compare_results(str(candidate), str(baseline))
    assert report.ok
    assert any(row.status == "skipped" for row in report.rows)

    # No row matches at all: a mis-keyed run must not pass silently.
    write_results(candidate, "E5", [{"mode": "sideways", "events": 1}])
    report = compare_results(str(candidate), str(baseline))
    assert not report.ok
    assert "no candidate row matched" in report.failures[0].note


def test_compare_results_named_experiment_requires_baseline(tmp_path):
    baseline = tmp_path / "baseline"
    candidate = tmp_path / "candidate"
    baseline.mkdir()
    candidate.mkdir()
    with pytest.raises(ReproError):
        compare_results(
            str(candidate), str(baseline), experiments=["E9"]
        )


def test_compare_results_validates_inputs(tmp_path):
    baseline = tmp_path / "baseline"
    candidate = tmp_path / "candidate"
    baseline.mkdir()
    candidate.mkdir()
    with pytest.raises(ReproError):
        compare_results(str(candidate), str(baseline), tolerance=1.5)
    with pytest.raises(ReproError):
        compare_results(str(tmp_path / "absent"), str(baseline))
    (baseline / "E1.json").write_text('{"not": "a list"}')
    (candidate / "E1.json").write_text("[]")
    with pytest.raises(ReproError):
        compare_results(str(candidate), str(baseline))


def test_default_tolerance_is_loose_but_bounded():
    assert 0.0 < DEFAULT_TOLERANCE < 1.0
