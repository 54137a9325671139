"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.family == "cycle"
        assert args.n == 24
        assert not args.distributed

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--family", "nope"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PODC 2019" in out
        assert "solve_rank3" in out

    def test_logstar(self, capsys):
        assert main(["logstar", "65536"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_plan_prints_local_rounds(self, capsys):
        from repro.generators import build_family_instance
        from repro.runtime import plan_for_instance

        assert main(["plan", "--family", "triples", "--n", "12"]) == 0
        out = capsys.readouterr().out
        plan = plan_for_instance(build_family_instance("triples", 12))
        assert f"local_rounds={plan.local_rounds}" in out

    def test_solve_sequential(self, capsys):
        assert main(["solve", "--family", "cycle", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "all bad events avoided" in out

    def test_solve_distributed(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--family",
                    "triples",
                    "--n",
                    "9",
                    "--alphabet",
                    "5",
                    "--distributed",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "LOCAL rounds" in out

    def test_solve_protocol(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--family",
                    "regular",
                    "--n",
                    "12",
                    "--degree",
                    "3",
                    "--protocol",
                ]
            )
            == 0
        )
        assert "LOCAL rounds" in capsys.readouterr().out

    def test_solve_rejects_at_threshold(self, capsys):
        code = main(
            ["solve", "--family", "cycle", "--n", "12", "--alphabet", "2"]
        )
        assert code == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_threshold_demo(self, capsys):
        assert main(["threshold", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "AT the threshold" in out
        assert "BELOW the threshold" in out

    def test_torus_family(self, capsys):
        assert main(["solve", "--family", "torus", "--n", "16"]) == 0
        assert "all bad events avoided" in capsys.readouterr().out

    def test_surface_ascii(self, capsys):
        assert main(["surface", "--width", "20", "--height", "8"]) == 0
        out = capsys.readouterr().out
        assert "@" in out
        assert "apex" in out

    def test_surface_csv(self, tmp_path, capsys):
        path = str(tmp_path / "surface.csv")
        assert main(["surface", "--csv", path, "--resolution", "6"]) == 0
        assert "wrote" in capsys.readouterr().out
        import csv

        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["a", "b", "f"]

    def test_report_command(self, benchmark_results_dir, capsys):
        code = main(["report", "--results-dir", benchmark_results_dir,
                     "--experiments", "T5"])
        assert code == 0
        assert "phase shift" in capsys.readouterr().out

    def test_info_landscape(self, capsys):
        assert main(["info", "--landscape"]) == 0
        assert "landscape" in capsys.readouterr().out


class TestObservabilityCommands:
    def build_trace(self, tmp_path, with_profile=False):
        from repro.obs import profiled, recording

        path = str(tmp_path / "trace.jsonl")
        with recording(path=path, run_id="cli-test") as recorder:
            recorder.event("demo", "tick", step=0)
            recorder.gauge("demo", "queue", 4)
            recorder.observe_quantile("demo", "latency_ns", 100)
            recorder.count("demo", "hits", 2)
            recorder.snapshot()
            if with_profile:
                with profiled(recorder, "demo", "cprofile", name="hot"):
                    sum(range(10_000))
        return path

    def test_stats_json(self, tmp_path, capsys):
        import json

        path = self.build_trace(tmp_path)
        assert main(["stats", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["run_ids"] == ["cli-test"]
        assert data["counters"]["demo/hits"] == 2
        assert data["gauges"]["demo/queue"]["value"] == 4.0
        assert data["quantiles"]["demo/latency_ns"]["count"] == 1

    def test_stats_follow_prints_snapshots(self, tmp_path, capsys):
        path = self.build_trace(tmp_path)
        # The trace is complete (run_start/run_end balanced), so the
        # follow loop drains it and exits without waiting.
        assert main(["stats", path, "--follow", "--idle-timeout", "2"]) == 0
        out = capsys.readouterr().out
        assert "snapshot @" in out
        assert "demo/hits=2" in out
        assert "spans" in out or "counters" in out

    def test_profile_reports_collapsed_stacks(self, tmp_path, capsys):
        path = self.build_trace(tmp_path, with_profile=True)
        assert main(["profile", path]) == 0
        report = capsys.readouterr().out
        assert "hottest frames" in report

    def test_profile_writes_folded_file(self, tmp_path, capsys):
        path = self.build_trace(tmp_path, with_profile=True)
        out = str(tmp_path / "stacks.folded")
        assert main(["profile", path, "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = open(out).read().strip().splitlines()
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and int(weight) > 0

    def test_profile_without_profile_events(self, tmp_path, capsys):
        path = self.build_trace(tmp_path)
        assert main(["profile", path]) == 0
        assert "REPRO_PROFILE" in capsys.readouterr().out


class TestBenchCompare:
    def write_results(self, directory, rows):
        import json

        directory.mkdir(parents=True, exist_ok=True)
        (directory / "E5.json").write_text(json.dumps(rows))

    def test_green_gate_exits_zero(self, tmp_path, capsys):
        rows = [{"experiment": "E5", "mode": "on", "events": 3,
                 "trace_ok": True}]
        self.write_results(tmp_path / "baseline", rows)
        self.write_results(tmp_path / "candidate", rows)
        code = main([
            "bench", "compare",
            "--results-dir", str(tmp_path / "candidate"),
            "--baseline-dir", str(tmp_path / "baseline"),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_regression_exits_three(self, tmp_path, capsys):
        self.write_results(
            tmp_path / "baseline",
            [{"experiment": "E5", "mode": "on", "events": 3,
              "trace_ok": True}],
        )
        self.write_results(
            tmp_path / "candidate",
            [{"experiment": "E5", "mode": "on", "events": 3,
              "trace_ok": False}],
        )
        code = main([
            "bench", "compare",
            "--results-dir", str(tmp_path / "candidate"),
            "--baseline-dir", str(tmp_path / "baseline"),
            "--verbose",
        ])
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "trace_ok" in out

    def test_missing_baseline_dir_is_an_error(self, tmp_path, capsys):
        (tmp_path / "candidate").mkdir()
        code = main([
            "bench", "compare",
            "--results-dir", str(tmp_path / "candidate"),
            "--baseline-dir", str(tmp_path / "absent"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
