"""CLI: argument parsing and command execution."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "alexnet", "sentinel"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lstm", "magic"])

    def test_platform_choices(self):
        args = build_parser().parse_args(["run", "lstm", "sentinel", "--platform", "gpu"])
        from repro.mem.platforms import GPU_HM

        assert args.platform is GPU_HM
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lstm", "sentinel", "--platform", "tpu"])

    def test_every_experiment_id_maps_to_a_function(self):
        from repro.harness import experiments

        for function_name in EXPERIMENTS.values():
            assert hasattr(experiments, function_name)


class TestCommands:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("resnet32", "bert-large", "lstm", "dcgan"):
            assert name in out

    def test_run_prints_metrics(self, capsys):
        assert main(["run", "lstm", "slow-only", "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "step time (s)" in out
        assert "lstm / slow-only" in out

    def test_run_sentinel_shows_extras(self, capsys):
        assert main(
            ["run", "lstm", "sentinel", "--batch", "16", "--fast-fraction", "0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "extras.interval_length" in out

    def test_profile_lists_hot_tensors(self, capsys):
        assert main(["profile", "dcgan", "--batch", "16", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "hottest tensors" in out
        assert "lower bound" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "lstm", "--batch", "16", "--fractions", "0.3", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "vs fast-only" in out
        assert "30%" in out

    def test_grid_renders_matrix(self, capsys):
        assert main(
            ["grid", "--models", "lstm", "--policies", "slow-only", "sentinel",
             "--fast-fraction", "0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep: step_time" in out
        assert "lstm" in out

    def test_features_prints_table1(self, capsys):
        assert main(["features"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "sentinel-gpu" in out

    def test_compare_handles_unsupported_models(self, capsys):
        assert main(
            ["compare", "lstm", "--batch", "8", "--platform", "gpu"]
        ) == 0
        out = capsys.readouterr().out
        assert "vdnn" in out
        assert "x" in out  # vDNN cannot run the LSTM

    def test_run_with_fault_injection(self, capsys):
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--fault-rate", "0.2", "--chaos-seed", "7", "--audit"]
        ) == 0
        out = capsys.readouterr().out
        assert "extras.migration_retries" in out
        assert "extras.chaos.migration_busy" in out

    def test_run_bad_fault_rate_rejected(self):
        with pytest.raises(ValueError):
            main(["run", "dcgan", "sentinel", "--fault-rate", "1.5"])

    def test_chaos_sweep_renders_degradation_table(self, capsys):
        assert main(
            ["chaos", "dcgan", "--policies", "sentinel",
             "--fault-rates", "0.0", "0.2", "--chaos-seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "under injected faults" in out
        assert "injected-fault totals" in out
        assert "vs 0%" in out


class TestTraceCommands:
    def test_trace_summary_to_stdout(self, tmp_path, capsys):
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--trace", str(tmp_path / "trace.json")]
        ) == 0
        out = capsys.readouterr().out
        assert "category" in out
        assert "migration" in out
        assert "tracks:" in out

    def test_trace_chrome_export_validates(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome

        path = tmp_path / "trace.json"
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--trace", str(path)]
        ) == 0
        obj = json.loads(path.read_text())
        assert validate_chrome(obj) > 0
        assert f"-> {path}" in capsys.readouterr().out

    def test_trace_jsonl_export(self, tmp_path, capsys):
        import json
        import re

        from repro.obs import from_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--trace", str(path)]
        ) == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) > 100
        record = json.loads(lines[0])
        assert {"name", "cat", "ph", "ts"} <= set(record)
        reported = re.search(r"^trace: (\d+) events -> ", capsys.readouterr().out, re.M)
        assert len(from_jsonl(path.read_text())) == int(reported.group(1))

    def test_trace_with_fault_injection(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--fault-rate", "0.2", "--chaos-seed", "5", "--trace", str(path)]
        ) == 0
        obj = json.loads(path.read_text())
        cats = {row.get("cat") for row in obj["traceEvents"]}
        assert "chaos" in cats

    def test_run_trace_flag_writes_chrome(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome

        path = tmp_path / "run.json"
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--trace", str(path)]
        ) == 0
        assert validate_chrome(json.loads(path.read_text())) > 0
        assert "trace:" in capsys.readouterr().out

    def test_grid_trace_flag_combines_points(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome

        path = tmp_path / "grid.json"
        assert main(
            ["grid", "--models", "dcgan", "--policies", "slow-only", "sentinel",
             "--fast-fraction", "0.3", "--trace", str(path)]
        ) == 0
        obj = json.loads(path.read_text())
        assert validate_chrome(obj) > 0
        pids = {row["pid"] for row in obj["traceEvents"]}
        assert len(pids) == 2  # one Perfetto process per grid point


class TestPressureCommands:
    def test_watermarks_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "dcgan", "sentinel", "--fast-watermarks", "0.6,0.8"]
        )
        assert args.fast_watermarks == (0.6, 0.8)

    def test_watermarks_flag_rejects_garbage(self):
        for bad in ("0.6", "0.6,0.8,0.9", "high,low"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "dcgan", "sentinel", "--fast-watermarks", bad]
                )

    def test_run_without_flags_builds_no_governor(self):
        from repro.cli import _pressure_from

        args = build_parser().parse_args(["run", "dcgan", "sentinel"])
        assert _pressure_from(args) is None

    def test_run_with_flags_prints_pressure_section(self, capsys):
        assert (
            main(
                [
                    "run",
                    "dcgan",
                    "sentinel",
                    "--batch",
                    "8",
                    "--fast-fraction",
                    "0.05",
                    "--fast-watermarks",
                    "0.75,0.9",
                    "--reserve-frames",
                    "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pressure:" in out
        assert "spills" in out
        assert "reclaims" in out

    def test_run_without_flags_prints_no_pressure_section(self, capsys):
        assert main(["run", "dcgan", "sentinel", "--batch", "8"]) == 0
        assert "pressure:" not in capsys.readouterr().out

    def test_pressure_command_renders_survival_table(self, capsys, tmp_path):
        trace_path = tmp_path / "pressure.json"
        assert (
            main(
                [
                    "pressure",
                    "--models",
                    "dcgan",
                    "--policies",
                    "sentinel",
                    "--fractions",
                    "0.1",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Pressure survival" in out
        assert "every point must complete" in out
        import json

        from repro.obs import validate_chrome

        with open(trace_path) as handle:
            assert validate_chrome(json.load(handle)) > 0


class TestCritpathCommand:
    def test_prints_attribution_and_critical_path(self, capsys):
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--critpath"]
        ) == 0
        out = capsys.readouterr().out
        assert "step attribution" in out
        assert "mig stall" in out and "contention" in out
        assert "what-if free migration" in out
        assert "critical path (step" in out

    def test_critical_path_line_spans_the_last_step(self):
        # The last step's two layers sit between a 0.5 s lead-in and a
        # 0.25 s tail, one boundary node each; a transfer overlapping the
        # whole step is not on the path.
        from repro.cli import _critical_path_line
        from repro.obs import EventTracer

        tracer = EventTracer()
        tracer.begin("step", "step", ts=0.0, step=0)
        tracer.begin("layer", "step", ts=0.0, layer=0)
        tracer.end("layer", "step", ts=2.0)
        tracer.end("step", "step", ts=2.0, step=0)
        tracer.begin("step", "step", ts=2.0, step=1)
        tracer.begin("layer", "step", ts=2.5, layer=0)
        tracer.end("layer", "step", ts=6.5)
        tracer.begin("layer", "step", ts=6.5, layer=1)
        tracer.end("layer", "step", ts=11.75)
        tracer.end("step", "step", ts=12.0, step=1, pre_stall=0.5, post_stall=0.25)
        tracer.complete("xfer", "channel", ts=1.0, dur=12.0, track="promote")
        assert _critical_path_line(tracer.events) == (
            "critical path (step 1): 4 nodes spanning 10.0000s — "
            "boundary 0.7500s, layer 9.2500s"
        )

    def test_critical_path_line_without_boundary_stalls(self):
        from repro.cli import _critical_path_line
        from repro.obs import EventTracer

        tracer = EventTracer()
        tracer.begin("step", "step", ts=0.0, step=0)
        for layer, (start, end) in enumerate(((0.0, 1.5), (1.5, 1.5), (1.5, 4.0))):
            tracer.begin("layer", "step", ts=start, layer=layer)
            tracer.end("layer", "step", ts=end)
        tracer.end("step", "step", ts=4.0, step=0)
        assert _critical_path_line(tracer.events) == (
            "critical path (step 0): 3 nodes spanning 4.0000s — layer 4.0000s"
        )
        assert _critical_path_line([]) is None

    def test_bandwidth_scale_flag(self, capsys):
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--critpath", "--bandwidth-scale", "4"]
        ) == 0
        assert "what-if 4x bandwidth" in capsys.readouterr().out

    def test_bandwidth_scale_requires_critpath(self):
        with pytest.raises(SystemExit):
            main(["run", "dcgan", "sentinel", "--bandwidth-scale", "4"])

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "attribution.json"
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--critpath", str(path)]
        ) == 0
        import json

        payload = json.loads(path.read_text())
        assert payload["model"] == "dcgan"
        assert payload["steps"]
        for step in payload["steps"]:
            components = sum(
                value for key, value in step.items() if key not in ("step", "duration")
            )
            assert abs(components - step["duration"]) < 1e-9

    def test_truncated_trace_refused_with_error(self, capsys, monkeypatch):
        # A tiny ring buffer guarantees drops on any real run; the command
        # must refuse clearly instead of printing partial numbers.
        import functools

        import repro.obs

        tiny = functools.partial(repro.obs.EventTracer, capacity=64)
        monkeypatch.setattr(repro.obs, "EventTracer", tiny)
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--critpath"]
        ) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "attribution may be partial" in captured.err


class TestInsightView:
    def test_run_insight_joins_stall_attribution(self, tmp_path, capsys):
        import json

        from repro.obs import validate_insight

        json_path = tmp_path / "insight.json"
        html_path = tmp_path / "insight.html"
        assert main(
            ["run", "dcgan", "sentinel", "--batch", "8", "--fast-fraction", "0.2",
             "--insight", str(json_path), "--insight-html", str(html_path)]
        ) == 0
        report = json.loads(json_path.read_text())
        assert validate_insight(report) > 0
        assert {"batch_size", "step_time"} <= set(report["meta"])
        assert "stall_unattributed" in report["totals"]
        assert html_path.read_text().lower().startswith("<!doctype html>")
        assert "tensor insight" in capsys.readouterr().out


class TestBenchCommand:
    def test_writes_artifacts_and_commits_first_baseline(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "bench",
                    "--models",
                    "dcgan",
                    "--out-dir",
                    str(out_dir),
                    "--baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "attribution benchmark" in out
        assert "first run" in out
        assert (out_dir / "BENCH_attribution.json").exists()
        assert (out_dir / "BENCH_step_time.json").exists()
        assert baseline.exists()

        # Second run against the just-written baseline passes the gate.
        assert (
            main(
                [
                    "bench",
                    "--models",
                    "dcgan",
                    "--out-dir",
                    str(out_dir),
                    "--baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        assert "benchmark gate passed" in capsys.readouterr().out

    def test_regression_fails_with_nonzero_exit(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "artifacts"
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "bench",
                    "--models",
                    "dcgan",
                    "--out-dir",
                    str(out_dir),
                    "--baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doctored = json.loads(baseline.read_text())
        doctored["models"]["dcgan"]["median_step_time"] *= 0.5
        baseline.write_text(json.dumps(doctored))
        assert (
            main(
                [
                    "bench",
                    "--models",
                    "dcgan",
                    "--out-dir",
                    str(out_dir),
                    "--baseline",
                    str(baseline),
                ]
            )
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().err

    def test_update_baseline_rewrites_instead_of_gating(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "artifacts"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "models": {
                        "dcgan": {"median_step_time": 1e-9, "step_times": [1e-9]}
                    },
                }
            )
        )
        assert (
            main(
                [
                    "bench",
                    "--models",
                    "dcgan",
                    "--out-dir",
                    str(out_dir),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert "baseline updated" in capsys.readouterr().out
        refreshed = json.loads(baseline.read_text())
        assert refreshed["models"]["dcgan"]["median_step_time"] > 1e-3


class TestAdmissionCommands:
    def test_admission_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "dcgan", "sentinel", "--admission", "feedback",
             "--admission-args", "stall_target=0.05"]
        )
        assert args.admission == "feedback"
        assert args.admission_args == "stall_target=0.05"

    def test_unknown_controller_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "dcgan", "sentinel", "--admission", "magic"]
            )

    def test_args_without_controller_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "dcgan", "sentinel", "--admission-args", "x=1"])

    def test_run_prints_admission_section(self, capsys):
        assert main(
            ["run", "dcgan", "sentinel", "--fast-fraction", "0.2",
             "--admission", "feedback"]
        ) == 0
        out = capsys.readouterr().out
        assert "admission (feedback):" in out
        assert "admitted bytes" in out

    def test_run_without_flag_prints_no_admission_section(self, capsys):
        assert main(["run", "lstm", "slow-only", "--batch", "8"]) == 0
        assert "admission" not in capsys.readouterr().out

    def test_serve_migration_admission_flag(self, capsys):
        assert main(
            ["serve", "--scenario", "steady", "--horizon", "20",
             "--migration-admission", "benefit-cost"]
        ) == 0
        assert "serving" in capsys.readouterr().out


class TestTournamentCommand:
    def test_leaderboard_and_artifact(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "tournament.json"
        argv = [
            "tournament", "--models", "dcgan", "--policies", "sentinel",
            "--admissions", "always", "feedback", "--governor", "off",
            "--json", str(artifact),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tournament leaderboard" in out
        assert "feedback" in out
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == "tournament/v1"
        first = artifact.read_bytes()
        assert main(argv) == 0
        assert artifact.read_bytes() == first  # byte-identical rerun

    def test_unknown_admission_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tournament", "--admissions", "magic"])
