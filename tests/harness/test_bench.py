"""Benchmark harness: artifact shape, byte-stability, and the regression gate."""

import json

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA,
    attribution_benchmark,
    check_regression,
    load_bench,
    step_time_payload,
    write_bench,
)


@pytest.fixture(scope="module")
def payload():
    return attribution_benchmark(models=("dcgan",))


class TestArtifacts:
    def test_payload_shape(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        entry = payload["models"]["dcgan"]
        assert entry["steps"] == len(entry["step_times"])
        assert entry["median_step_time"] > 0.0
        assert set(entry["attribution_totals"]) == {
            "compute",
            "migration_stall",
            "channel_contention",
            "fault",
            "pressure_reclaim",
            "ras_recovery",
            "idle",
        }
        # What-ifs are bounds: free migration <= measured median.
        assert entry["what_if_free_migration"] <= entry["median_step_time"]
        assert entry["what_if_2x_bandwidth"] <= entry["median_step_time"]

    def test_step_time_projection(self, payload):
        gate = step_time_payload(payload)
        assert gate["schema"] == payload["schema"]
        assert set(gate["models"]["dcgan"]) == {"median_step_time", "step_times"}

    def test_write_and_load_round_trip(self, payload, tmp_path):
        path = tmp_path / "nested" / "BENCH_step_time.json"
        gate = step_time_payload(payload)
        write_bench(gate, path)
        assert load_bench(path) == gate
        # Canonical rendering: sorted keys, trailing newline, rewritable.
        first = path.read_text()
        assert first.endswith("\n")
        write_bench(json.loads(first), path)
        assert path.read_text() == first

    def test_load_missing_returns_none(self, tmp_path):
        assert load_bench(tmp_path / "absent.json") is None


def gate(median, model="dcgan"):
    return {
        "schema": BENCH_SCHEMA,
        "models": {model: {"median_step_time": median, "step_times": [median]}},
    }


class TestRegressionGate:
    def test_identical_run_passes(self):
        assert check_regression(gate(1.0), gate(1.0)) == []

    def test_within_threshold_passes(self):
        assert check_regression(gate(1.0), gate(1.04)) == []

    def test_beyond_threshold_fails(self):
        problems = check_regression(gate(1.0), gate(1.06))
        assert len(problems) == 1
        assert "regressed" in problems[0] and "dcgan" in problems[0]

    def test_improvement_passes(self):
        assert check_regression(gate(1.0), gate(0.5)) == []

    def test_custom_threshold(self):
        assert check_regression(gate(1.0), gate(1.04), threshold=0.01)
        assert not check_regression(gate(1.0), gate(1.3), threshold=0.5)
        with pytest.raises(ValueError):
            check_regression(gate(1.0), gate(1.0), threshold=-0.1)

    def test_model_missing_from_current_fails(self):
        baseline = gate(1.0)
        baseline["models"]["lstm"] = {"median_step_time": 2.0, "step_times": [2.0]}
        problems = check_regression(baseline, gate(1.0))
        assert any("lstm" in p and "missing" in p for p in problems)

    def test_model_missing_from_baseline_is_reported(self):
        problems = check_regression(gate(1.0), gate(1.0, model="other"))
        assert any("not in baseline" in p for p in problems)
        assert any("missing from current" in p for p in problems)


class TestCommittedBaseline:
    def test_committed_baseline_matches_current_tree(self):
        # The CI gate compares against benchmarks/BENCH_step_time.json; a
        # drifted committed baseline would make every CI run fail (or pass
        # vacuously), so regenerating it must reproduce the committed file.
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        committed = load_bench(root / "benchmarks" / "BENCH_step_time.json")
        assert committed is not None, "baseline missing — run: repro bench"
        fresh = step_time_payload(
            attribution_benchmark(models=tuple(sorted(committed["models"])))
        )
        assert check_regression(committed, fresh) == []
        assert fresh == committed, (
            "committed BENCH_step_time.json is stale — regenerate with "
            "PYTHONPATH=src python -m repro bench --out-dir benchmarks"
        )

