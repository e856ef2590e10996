"""Dynamic profiler: the measured profile must match graph ground truth.

This is the load-bearing property of the whole reproduction: Sentinel's
decisions are only as good as the OS/runtime-coordinated profile, and the
simulator knows the true access pattern, so we can check them against each
other exactly.
"""

import pytest

from repro.core.profiler import (
    DynamicProfiler,
    estimate_layer_fast_times,
    layer_short_lived_bytes,
    page_aligned_peak_bytes,
)
from repro.core.runtime import SentinelConfig, SentinelPolicy
from repro.dnn.executor import Executor
from repro.dnn.graph import GraphBuilder, Phase
from repro.dnn.tensor import TensorKind
from repro.mem.machine import Machine
from repro.mem.platforms import GPU_HM, OPTANE_HM
from repro.models import build_model


def crafted_graph():
    """A graph with known per-layer access counts."""
    b = GraphBuilder("crafted", batch_size=2)
    w = b.weight("w", 8192)
    x = b.input("x", 4096)
    with b.layer("l0"):
        act = b.tensor("act", 4096 * 3)
        b.op("f0", flops=1e6, reads=[x, w], writes=[act])
        b.op("f0b", flops=1e6, reads=[act])
    with b.layer("l1"):
        mid = b.tensor("mid", 4096)
        b.op("f1", flops=1e6, reads=[act], writes=[mid])
    with b.layer("l2", Phase.BACKWARD):
        b.op("f2", flops=1e6, reads=[act, mid, w], writes=[w])
    return b.finish()


@pytest.fixture(scope="module")
def crafted_profile():
    return DynamicProfiler(OPTANE_HM).run(crafted_graph())


class TestProfileAccuracy:
    def test_every_tensor_profiled(self, crafted_profile):
        graph = crafted_graph()
        assert set(crafted_profile.profile.tensors) == {t.tid for t in graph.tensors}

    def test_lifetimes_match_ground_truth(self, crafted_profile):
        profile = crafted_profile.profile
        graph = crafted_graph()
        for tensor in graph.tensors:
            measured = profile.tensors[tensor.tid]
            assert measured.alloc_layer == tensor.alloc_layer
            assert measured.free_layer == tensor.free_layer
            assert measured.preallocated == tensor.preallocated

    def test_per_layer_touches_match_ground_truth(self, crafted_profile):
        """Fault-counter attribution equals the graph's declared accesses."""
        profile = crafted_profile.profile
        graph = crafted_graph()
        for tensor in graph.tensors:
            measured = profile.tensors[tensor.tid]
            assert measured.touches_by_layer == tensor.layer_touches, tensor.name

    def test_profiling_counts_cost_faults(self, crafted_profile):
        assert crafted_profile.profile.fault_count > 0
        assert crafted_profile.step_result.fault_time > 0

    @pytest.mark.parametrize("model", ["resnet32", "lstm", "dcgan"])
    def test_zoo_profiles_match_ground_truth(self, model):
        graph = build_model(model, batch_size=8)
        profile = DynamicProfiler(OPTANE_HM).run(graph).profile
        mismatches = [
            t.name
            for t in graph.tensors
            if profile.tensors[t.tid].touches_by_layer != t.layer_touches
        ]
        assert not mismatches


class TestOverheadAccounting:
    def test_profiling_step_slower_than_plain_step(self):
        """The poisoned step pays for every fault (paper: up to ~5x)."""
        graph = build_model("resnet32", batch_size=32)
        profiled = DynamicProfiler(OPTANE_HM).run(graph)
        from repro.dnn.policy import PlacementPolicy

        plain = Executor(
            build_model("resnet32", batch_size=32),
            Machine(OPTANE_HM),
            PlacementPolicy(),
        ).run_step()
        slowdown = profiled.step_result.duration / plain.duration
        assert 1.5 < slowdown < 10.0

    def test_memory_overhead_is_small(self):
        """Page-aligned profiling costs little because big tensors dominate
        (paper: at most ~2.4%)."""
        graph = build_model("resnet32", batch_size=256)
        profile = DynamicProfiler(OPTANE_HM).run(graph).profile
        assert 0.0 <= profile.memory_overhead < 0.05

    def test_profiling_never_touches_fast_memory(self):
        graph = build_model("dcgan", batch_size=8)
        run = DynamicProfiler(OPTANE_HM).run(graph)
        assert run.step_result.peak_fast == 0

    def test_profiling_reads_in_place_on_a_residency_platform(self):
        """GPU kernels need device-resident operands, but the profiling
        step reads host memory in place (pinned-memory profiling, §V)."""
        run = DynamicProfiler(GPU_HM).run(build_model("dcgan", batch_size=8))
        assert run.step_result.peak_fast == 0
        assert run.step_result.bytes_fast == 0

    def test_unpoisoned_after_profiling(self):
        run = DynamicProfiler(OPTANE_HM).run(crafted_graph())
        assert run.profile.fault_count == run.step_result.fault_time / OPTANE_HM.fault_cost
        # The step DynamicProfiler.run runs, on a machine the test can see:
        # it takes faults, and every run that survives it is unpoisoned.
        machine = Machine(OPTANE_HM)
        policy = SentinelPolicy(SentinelConfig(warmup_steps=0))
        result = Executor(crafted_graph(), machine, policy).run_step()
        assert result.fault_time > 0
        assert machine.fault_handler.faults_taken > 0
        entries = list(machine.page_table.entries())
        assert entries
        assert not [entry.vpn for entry in entries if entry.poisoned]


class TestHelpers:
    def test_estimate_layer_fast_times_positive(self):
        graph = crafted_graph()
        times = estimate_layer_fast_times(graph, Machine(OPTANE_HM))
        assert len(times) == graph.num_layers
        assert all(t > 0 for t in times)

    def test_layer_short_lived_bytes(self):
        b = GraphBuilder("s", batch_size=1)
        w = b.weight("w", 100)
        with b.layer("l0"):
            tmp = b.temp("tmp", 64)
            b.op("f", flops=1.0, reads=[w], writes=[tmp])
        with b.layer("l1"):
            tmp2 = b.temp("tmp2", 32)
            b.op("g", flops=1.0, reads=[w], writes=[tmp2])
        graph = b.finish()
        assert layer_short_lived_bytes(graph) == [64, 32]

    def test_page_aligned_peak_at_least_packed_peak(self):
        graph = build_model("mobilenet", batch_size=4)
        aligned = page_aligned_peak_bytes(graph, 4096)
        assert aligned >= graph.peak_memory_bytes()
