"""Base placement policy: pricing, residency, initialized-materialize."""

import pytest

from repro.chaos import ChaosConfig, FaultInjector
from repro.dnn.alloc import GroupedAllocator, PackedAllocator
from repro.dnn.ops import TensorAccess
from repro.dnn.policy import AccessCharge, PlacementPolicy, ResidencyError
from repro.dnn.graph import GraphBuilder
from repro.dnn.tensor import Tensor, TensorKind
from repro.mem.devices import DeviceKind, MemoryDevice
from repro.mem.machine import Machine
from repro.mem.platforms import GPU_HM, OPTANE_HM


def tiny_graph():
    b = GraphBuilder("tiny", batch_size=1)
    w = b.weight("w", 4096)
    with b.layer("l0"):
        out = b.tensor("out", 4096)
        b.op("f", flops=1.0, reads=[w], writes=[out])
    return b.finish()


def bound_policy(platform=OPTANE_HM, fast_capacity=None):
    machine = Machine.for_platform(platform, fast_capacity=fast_capacity)
    policy = PlacementPolicy()
    policy.bind(machine, tiny_graph())
    allocator = GroupedAllocator(machine, policy.place, lambda tensor: None)
    return machine, policy, allocator


def step_tensor(tid, nbytes):
    tensor = Tensor(tid=tid, name=f"t{tid}", nbytes=nbytes, kind=TensorKind.ACTIVATION)
    tensor.alloc_layer = 0
    tensor.free_layer = 0
    return tensor


class TestBind:
    def test_residency_inherited_from_platform(self):
        _, cpu_policy, _ = bound_policy(OPTANE_HM)
        assert not cpu_policy.residency
        _, gpu_policy, _ = bound_policy(GPU_HM)
        assert gpu_policy.residency

    def test_residency_override(self):
        machine = Machine(GPU_HM)
        policy = PlacementPolicy()
        policy.requires_residency = False
        policy.bind(machine, tiny_graph())
        assert not policy.residency


class TestChargeAccess:
    def test_slow_access_priced_at_slow_speed(self):
        machine, policy, allocator = bound_policy()
        tensor = step_tensor(0, 1 << 20)
        mapping = allocator.alloc(tensor, now=0.0)
        access = TensorAccess(tensor, tensor.nbytes, is_write=False)
        charge = policy.charge_access(tensor, mapping, access, now=0.0)
        expected = machine.access_time(DeviceKind.SLOW, tensor.nbytes, False)
        assert charge.mem_time == pytest.approx(expected)
        assert charge.bytes_slow == tensor.nbytes
        assert charge.bytes_fast == 0

    def test_passes_multiply_time_and_bytes(self):
        machine, policy, allocator = bound_policy()
        tensor = step_tensor(0, 1 << 20)
        mapping = allocator.alloc(tensor, now=0.0)
        single = policy.charge_access(
            tensor, mapping, TensorAccess(tensor, tensor.nbytes, False), now=0.0
        )
        triple = policy.charge_access(
            tensor, mapping, TensorAccess(tensor, tensor.nbytes, False, passes=3), now=0.0
        )
        assert triple.mem_time == pytest.approx(3 * single.mem_time)
        assert triple.bytes_slow == 3 * single.bytes_slow

    def test_write_marks_initialized(self):
        machine, policy, allocator = bound_policy()
        tensor = step_tensor(0, 4096)
        mapping = allocator.alloc(tensor, now=0.0)
        run = mapping.shares[0].run
        assert not run.initialized
        policy.charge_access(
            tensor, mapping, TensorAccess(tensor, tensor.nbytes, True), now=0.0
        )
        assert run.initialized

    def test_poisoned_access_charged_faults(self):
        machine, policy, allocator = bound_policy()
        tensor = step_tensor(0, 4096 * 4)
        mapping = allocator.alloc(tensor, now=0.0)
        machine.page_table.poison_all()
        charge = policy.charge_access(
            tensor, mapping, TensorAccess(tensor, tensor.nbytes, False), now=0.0
        )
        assert charge.fault == pytest.approx(4 * machine.platform.fault_cost)

    def test_merge(self):
        a = AccessCharge(mem_time=1.0, stall=0.5, fault=0.1, bytes_fast=10, bytes_slow=20)
        b = AccessCharge(mem_time=2.0, bytes_fast=5)
        a.merge(b)
        assert a.mem_time == 3.0
        assert a.bytes_fast == 15
        assert a.bytes_slow == 20


class TestInlinePrice:
    """``charge_access`` prices a share exactly as ``MemoryDevice.access_time``."""

    @pytest.mark.parametrize("throttled", [False, True])
    def test_mem_time_is_the_sum_of_device_access_times(self, throttled):
        def injector():
            # Two injectors from one seed draw the same slowdown stream.
            if not throttled:
                return None
            return FaultInjector(ChaosConfig(seed=5, device_throttle_rate=0.5))

        machine = Machine.for_platform(OPTANE_HM, injector=injector())
        policy = PlacementPolicy()
        policy.bind(machine, tiny_graph())
        reference = injector()
        devices = {
            kind: MemoryDevice(machine.device(kind).spec, kind, injector=reference)
            for kind in DeviceKind
        }
        # Odd tids land on fast memory; packing splits tensors over runs.
        allocator = PackedAllocator(
            machine,
            lambda tensor, now: DeviceKind.FAST if tensor.tid % 2 else DeviceKind.SLOW,
        )
        page = machine.page_size
        cases = []
        for tid, nbytes in enumerate((1000, 5 * page // 2, 5 * page // 4, 3 * page + 7)):
            tensor = step_tensor(tid, nbytes)
            cases.append((tensor, allocator.alloc(tensor, now=0.0)))
        assert {len(mapping.shares) for _, mapping in cases} >= {1, 3}
        # One run in flight each way, landing at t = 1.
        for _, mapping in cases[1:3]:
            run = mapping.shares[-1].run
            run.begin_migration(run.device.other(), available_at=1.0)

        for now in (0.5, 1.5):
            for tensor, mapping in cases:
                for is_write in (False, True):
                    for passes in (1, 2, 3):
                        access = TensorAccess(tensor, tensor.nbytes, is_write, passes)
                        charge = policy.charge_access(tensor, mapping, access, now=now)
                        expected = 0.0
                        for share in mapping.shares:
                            device = devices[share.run.effective_device(now)]
                            expected += passes * device.access_time(share.nbytes, is_write)
                        assert charge.mem_time == expected
        if throttled:
            assert machine.injector.counts["chaos.device_throttled"] > 0


class TestResidency:
    def test_gpu_access_promotes_and_stalls(self):
        machine, policy, allocator = bound_policy(GPU_HM)
        tensor = step_tensor(0, 1 << 20)
        mapping = allocator.alloc(tensor, now=0.0)
        run = mapping.shares[0].run
        run.initialized = True  # pretend it holds data from a prior step
        access = TensorAccess(tensor, tensor.nbytes, is_write=False)
        charge = policy.charge_access(tensor, mapping, access, now=0.0)
        assert charge.stall > 0
        assert run.device is DeviceKind.FAST
        # Priced at fast speed once resident.
        assert charge.bytes_fast == tensor.nbytes

    def test_uninitialized_buffer_materializes_without_transfer(self):
        machine, policy, allocator = bound_policy(GPU_HM)
        tensor = step_tensor(0, 1 << 20)
        mapping = allocator.alloc(tensor, now=0.0)
        access = TensorAccess(tensor, tensor.nbytes, is_write=True)
        charge = policy.charge_access(tensor, mapping, access, now=0.0)
        assert charge.stall == 0.0
        assert machine.demand_channel.bytes_moved == 0
        assert mapping.shares[0].run.device is DeviceKind.FAST

    def test_resident_run_costs_nothing_extra(self):
        machine, policy, allocator = bound_policy(GPU_HM)
        tensor = step_tensor(0, 4096)
        machine.fast.allocate(4096)
        run = machine.page_table.map_run(1, DeviceKind.FAST)
        assert policy.ensure_resident(run, now=0.0) == 0.0

    def test_base_policy_evicts_oldest_mapping_first(self):
        machine, policy, allocator = bound_policy(GPU_HM, fast_capacity=2 * 4096)
        older = machine.map_run(1, DeviceKind.FAST)
        newer = machine.map_run(1, DeviceKind.FAST)
        tensor = step_tensor(0, 4096)
        mapping = allocator.alloc(tensor, now=0.0)
        run = mapping.shares[0].run
        run.initialized = True
        charge = policy.charge_access(
            tensor, mapping, TensorAccess(tensor, 4096, False), now=0.0
        )
        assert charge.stall > 0.0
        assert older.device is DeviceKind.SLOW
        assert newer.device is DeviceKind.FAST
        assert run.device is DeviceKind.FAST

    def test_miss_with_nothing_evictable_raises(self):
        machine, policy, allocator = bound_policy(
            GPU_HM, fast_capacity=4096
        )
        # Claimed outside any run: eviction finds nothing to demote.
        machine.fast.allocate(4096)
        tensor = step_tensor(0, 4096)
        mapping = allocator.alloc(tensor, now=0.0)
        mapping.shares[0].run.initialized = True
        with pytest.raises(ResidencyError):
            policy.charge_access(
                tensor, mapping, TensorAccess(tensor, 4096, False), now=0.0
            )

    def test_inflight_promotion_waits_for_arrival(self):
        machine, policy, allocator = bound_policy(GPU_HM)
        tensor = step_tensor(0, 1 << 20)
        mapping = allocator.alloc(tensor, now=0.0)
        run = mapping.shares[0].run
        run.initialized = True
        transfer, _, _ = machine.migration.promote([run], now=0.0)
        stall = policy.ensure_resident(run, now=0.0)
        assert stall == pytest.approx(transfer.finish)
