"""Experiment runner and max-batch search."""

import pytest

from repro.core.runtime import SentinelConfig
from repro.harness.runner import RunMetrics, batch_feasible, max_batch_size, run_policy
from repro.mem.platforms import GPU_HM, OPTANE_HM
from repro.models import build_model


class TestRunPolicy:
    def test_requires_exactly_one_workload_spec(self):
        with pytest.raises(ValueError):
            run_policy("slow-only")
        with pytest.raises(ValueError):
            run_policy(
                "slow-only", model="lstm", graph=build_model("lstm", batch_size=4)
            )

    def test_basic_metrics_populated(self):
        metrics = run_policy("slow-only", model="lstm", batch_size=8)
        assert metrics.model == "lstm"
        assert metrics.batch_size == 8
        assert metrics.step_time > 0
        assert metrics.throughput == pytest.approx(8 / metrics.step_time)

    def test_fast_fraction_sizes_machine(self):
        graph = build_model("resnet32", batch_size=64)
        peak = graph.peak_memory_bytes()
        metrics = run_policy("sentinel", model="resnet32", batch_size=64, fast_fraction=0.2)
        assert metrics.fast_capacity == pytest.approx(peak * 0.2, rel=0.01)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            run_policy("slow-only", model="lstm", batch_size=4, fast_fraction=0.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_policy("magic", model="lstm", batch_size=4)

    def test_admission_args_need_a_controller_name(self):
        with pytest.raises(ValueError, match="without a controller name"):
            run_policy(
                "slow-only",
                model="lstm",
                batch_size=4,
                admission_args={"stall_target": 0.02},
            )

    def test_sentinel_extras_reported(self):
        metrics = run_policy(
            "sentinel", model="resnet32", batch_size=64, fast_fraction=0.3
        )
        assert metrics.extras["profiling_steps"] == 1
        assert "interval_length" in metrics.extras
        assert "memory_overhead" in metrics.extras

    def test_capuchin_reports_recompute(self):
        metrics = run_policy(
            "capuchin",
            model="dcgan",
            batch_size=512,
            platform=GPU_HM,
        )
        assert "recompute_time" in metrics.extras

    def test_deterministic(self):
        a = run_policy("sentinel", model="lstm", batch_size=16, fast_fraction=0.3)
        b = run_policy("sentinel", model="lstm", batch_size=16, fast_fraction=0.3)
        assert a.step_time == b.step_time
        assert a.migrated_bytes == b.migrated_bytes


class TestMaxBatch:
    def test_feasibility_probe(self):
        small_gpu = GPU_HM.with_fast_capacity(1 * 1024**3)
        assert batch_feasible("sentinel-gpu", "dcgan", 4, small_gpu)
        assert not batch_feasible("fast-only", "dcgan", 4096, small_gpu)

    def test_sentinel_reaches_larger_batch_than_plain(self):
        small_gpu = GPU_HM.with_fast_capacity(2 * 1024**3)
        plain = max_batch_size("fast-only", "dcgan", small_gpu, limit=4096)
        sentinel = max_batch_size("sentinel-gpu", "dcgan", small_gpu, limit=4096)
        assert sentinel > plain >= 1

    def test_zero_when_start_infeasible(self):
        tiny = GPU_HM.with_fast_capacity(16 * 4096)
        assert max_batch_size("fast-only", "dcgan", tiny, limit=64) == 0

    def test_result_is_boundary(self):
        small_gpu = GPU_HM.with_fast_capacity(2 * 1024**3)
        best = max_batch_size("fast-only", "dcgan", small_gpu, limit=4096)
        assert batch_feasible("fast-only", "dcgan", best, small_gpu)
        assert not batch_feasible("fast-only", "dcgan", best + 1, small_gpu)
