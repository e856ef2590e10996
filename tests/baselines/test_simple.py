"""Bounds, first-touch NUMA, and Memory Mode policies."""

import pytest

from repro.baselines.simple import (
    FastOnlyPolicy,
    FirstTouchNUMAPolicy,
    MemoryModePolicy,
    SlowOnlyPolicy,
)
from repro.dnn.executor import Executor
from repro.dnn.tensor import Tensor, TensorKind
from repro.mem.devices import DeviceFullError, DeviceKind
from repro.mem.machine import Machine
from repro.mem.page import PAGE_SIZE as PAGE
from repro.mem.platforms import OPTANE_HM
from repro.models import build_model


def run(policy, model="resnet32", batch=64, fast_capacity=None, steps=2):
    graph = build_model(model, batch_size=batch)
    machine = Machine.for_platform(OPTANE_HM, fast_capacity=fast_capacity)
    executor = Executor(graph, machine, policy)
    return machine, executor.run_steps(steps)[-1]


def bound_first_touch(fast_pages):
    """A first-touch policy bound to a machine with ``fast_pages`` of DRAM."""
    machine = Machine.for_platform(OPTANE_HM, fast_capacity=fast_pages * PAGE)
    policy = FirstTouchNUMAPolicy()
    policy.bind(machine, build_model("dcgan", batch_size=8))
    return machine, policy


def pages(count):
    return Tensor(tid=0, name="t", nbytes=count * PAGE, kind=TensorKind.TEMP)


class TestBounds:
    def test_fast_only_beats_slow_only(self):
        _, fast = run(FastOnlyPolicy())
        _, slow = run(SlowOnlyPolicy())
        assert slow.duration > 2 * fast.duration

    def test_slow_only_never_uses_fast(self):
        machine, result = run(SlowOnlyPolicy())
        assert result.peak_fast == 0
        assert result.bytes_fast == 0

    def test_fast_only_oom_when_fast_too_small(self):
        graph = build_model("resnet32", batch_size=64)
        machine = Machine.for_platform(OPTANE_HM, fast_capacity=1 << 20)
        with pytest.raises(DeviceFullError):
            # Preallocation (weights) may already overflow; otherwise the
            # first step's activations will.
            Executor(graph, machine, FastOnlyPolicy()).run_step()


class TestFirstTouch:
    def test_fills_fast_then_spills(self):
        graph = build_model("resnet32", batch_size=64)
        peak = graph.peak_memory_bytes()
        machine, result = run(
            FirstTouchNUMAPolicy(), fast_capacity=int(peak * 0.3)
        )
        assert result.bytes_fast > 0
        assert result.bytes_slow > 0

    def test_everything_fast_when_it_fits(self):
        machine, result = run(FirstTouchNUMAPolicy())
        assert result.bytes_slow == 0

    def test_between_bounds_when_constrained(self):
        graph = build_model("resnet32", batch_size=64)
        peak = graph.peak_memory_bytes()
        _, fast = run(FastOnlyPolicy())
        _, slow = run(SlowOnlyPolicy())
        _, ft = run(FirstTouchNUMAPolicy(), fast_capacity=int(peak * 0.3))
        assert fast.duration < ft.duration < slow.duration

    def test_prefers_fast_while_it_fits(self):
        _, policy = bound_first_touch(fast_pages=100)
        assert policy.place(pages(50), 0.0) is DeviceKind.FAST

    def test_spills_to_slow_when_fast_full(self):
        machine, policy = bound_first_touch(fast_pages=100)
        machine.fast.allocate(90 * PAGE)
        assert policy.place(pages(20), 0.0) is DeviceKind.SLOW

    def test_no_correction_after_spill(self):
        """First-touch never migrates: once spilled, always slow for big
        allocations, even after fast frees up — the *placement* decision is
        per allocation, so freeing fast lets new pages in again."""
        machine, policy = bound_first_touch(fast_pages=100)
        machine.fast.allocate(100 * PAGE)
        assert policy.place(pages(10), 0.0) is DeviceKind.SLOW
        machine.fast.release(100 * PAGE)
        assert policy.place(pages(10), 0.0) is DeviceKind.FAST

    def test_raises_when_neither_fits(self):
        """A slab no tier holds goes to slow memory, whose allocation
        refuses it."""
        machine, policy = bound_first_touch(fast_pages=10)
        machine.slow.allocate(machine.slow.free - 10 * PAGE)
        allocator = policy.make_allocator()
        with pytest.raises(DeviceFullError):
            allocator.alloc(pages(11), 0.0)


class TestMemoryMode:
    def test_all_pages_nominally_slow(self):
        machine, result = run(MemoryModePolicy(), fast_capacity=1 << 30)
        assert machine.page_table.bytes_on(DeviceKind.FAST) == 0

    def test_cache_hits_recorded(self):
        graph = build_model("resnet32", batch_size=64)
        machine = Machine.for_platform(OPTANE_HM, fast_capacity=1 << 30)
        executor = Executor(graph, machine, MemoryModePolicy())
        executor.run_step()
        assert machine.dram_cache.hits > 0
        assert machine.dram_cache.misses > 0

    def test_faster_than_slow_only_with_big_cache(self):
        _, slow = run(SlowOnlyPolicy())
        _, mm = run(MemoryModePolicy())
        assert mm.duration < slow.duration

    def test_small_cache_degrades_toward_slow(self):
        graph = build_model("resnet32", batch_size=64)
        peak = graph.peak_memory_bytes()
        _, big = run(MemoryModePolicy(), fast_capacity=peak * 2)
        _, small = run(MemoryModePolicy(), fast_capacity=max(4096, int(peak * 0.05)))
        assert small.duration > big.duration

    def test_freed_tensors_invalidate_cache_lines(self):
        graph = build_model("dcgan", batch_size=8)
        machine = Machine.for_platform(OPTANE_HM, fast_capacity=1 << 30)
        executor = Executor(graph, machine, MemoryModePolicy())
        executor.run_step()
        # Only preallocated tensors' runs may remain cached after the step.
        live_runs = {e.vpn for e in machine.page_table.entries()}
        assert set(machine.dram_cache._lines) <= live_runs
