"""Experiment functions: structure and rendering (reduced scopes).

The benchmarks run the full configurations; these tests exercise each
experiment's machinery on small subsets so regressions in the experiment
plumbing surface quickly in the unit suite.
"""

import pytest

from repro.harness import experiments as E


class TestCharacterization:
    def test_returns_all_sections(self):
        result = E.characterization(model="dcgan", batch_size=16)
        for key in (
            "short_fraction",
            "small_of_short",
            "hot_count",
            "false_sharing",
            "profile",
            "text",
        ):
            assert key in result
        assert "Characterization" in result["text"]

    def test_false_sharing_invariant(self):
        result = E.characterization(model="dcgan", batch_size=16)
        fs = result["false_sharing"]
        assert fs["page_cold_bytes"] <= fs["tensor_cold_bytes"]
        assert fs["misclassified_bytes"] == max(
            0, fs["tensor_cold_bytes"] - fs["page_cold_bytes"]
        )


class TestCPUExperiments:
    def test_table3_subset(self):
        result = E.table3_models(models=("dcgan",))
        assert len(result["records"]) == 1
        record = result["records"][0]
        assert record["profiling_steps"] == 1
        assert "Table III" in result["text"]

    def test_fig5_sweep_points(self):
        result = E.fig5_interval_sweep(model="dcgan", lengths=(1, 2, 4))
        assert [x for x, _ in result["points"]] == [1, 2, 4]
        assert result["best"][0] in (1, 2, 4)
        assert result["variance"] >= 0

    def test_fig7_subset_structure(self):
        result = E.fig7_speedup(models=("dcgan",))
        row = result["records"]["dcgan"]
        assert set(row) >= {"slow_time", "fast_time", "ial", "autotm", "sentinel"}
        assert row["fast_time"] < row["slow_time"]

    def test_table4_subset(self):
        result = E.table4_migrated(models=("dcgan",))
        assert result["records"]["dcgan"]["sentinel"] > 0

    def test_fig9_records(self):
        result = E.fig9_bandwidth(model="dcgan")
        assert result["fast_ratio"] > 0
        for policy in ("ial", "sentinel"):
            assert result["records"][policy]["fast_bw"] >= 0

    def test_fig10_subset(self):
        result = E.fig10_sensitivity(models=("dcgan",), fractions=(0.3, 0.6))
        series = result["records"]["dcgan"]
        assert [f for f, _ in series] == [0.3, 0.6]

    def test_fig11_subset(self):
        result = E.fig11_resnet_scaling(depths=(20,), batch_size=128)
        record = result["records"][0]
        assert 0 < record["min_fast_bytes"] <= record["peak_bytes"]


class TestGPUExperiments:
    def test_fig12_subset(self):
        result = E.fig12_gpu_throughput(
            models=("dcgan",), batches={"dcgan": (256,)}
        )
        row = result["records"][("dcgan", 256)]
        assert row["sentinel-gpu"] is not None
        assert row["unified-memory"] is not None

    def test_fig13_subset(self):
        result = E.fig13_breakdown(models=("resnet200",))
        per_model = result["records"]["resnet200"]
        assert "sentinel (all)" in per_model
        breakdown = per_model["sentinel (all)"]
        assert breakdown["step_time"] > 0
        assert breakdown["recompute"] == 0.0


class TestSystemExperiments:
    """The experiments only ``repro experiment`` reaches, on small inputs."""

    def test_step_attribution_subset(self):
        result = E.step_attribution(models=("dcgan",))
        record = result["records"]["dcgan"]
        assert 0 < record["what_if_free_migration"] <= record["median_step_time"]
        assert "step attribution" in result["text"]

    def test_ras_resilience_subset(self):
        result = E.ras_resilience(
            model="dcgan", recoveries=("none", "remat"), ue_rates=(0.0, 1e-9)
        )
        survived = {
            recovery: [point["survived"] for point in series]
            for recovery, series in result["records"].items()
        }
        assert survived == {"none": [True, False], "remat": [True, True]}

    def test_multi_tenant_contention_subset(self):
        result = E.multi_tenant_contention(models=("dcgan", "lstm"), policies=("ial",))
        series = result["records"]["ial"]
        assert [row["model"] for row in series] == ["dcgan", "lstm", "(aggregate)"]
        aggregate = series[-1]
        assert aggregate["concurrent_step_time"] > aggregate["isolated_step_time"]

    def test_serving_overload_subset(self):
        result = E.serving_overload(rates=(1.0,), admissions=("edf",), horizon=10.0)
        (point,) = result["records"]["edf"]
        assert point["rate"] == 1.0
        assert 0 < point["completed"] <= point["jobs"]


class TestConstants:
    def test_gpu_batches_cover_gpu_models(self):
        assert set(E.GPU_MODELS) == set(E.GPU_BATCHES)
        for batches in E.GPU_BATCHES.values():
            assert list(batches) == sorted(batches)

    def test_cpu_model_sets_are_registered(self):
        from repro.models import MODELS

        for name in E.CPU_SMALL_MODELS + E.CPU_LARGE_MODELS:
            assert name in MODELS
