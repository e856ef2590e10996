"""White-box tests of SentinelPolicy's planning internals.

These pin the arithmetic of the deficit/prefetch machinery on a small
crafted workload so behavioural regressions show as unit failures rather
than end-to-end slowdowns.
"""

import pytest

from repro.core.runtime import MANAGED, SentinelConfig, SentinelPolicy
from repro.dnn.executor import Executor
from repro.dnn.graph import GraphBuilder, Phase
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM

PAGE = OPTANE_HM.page_size


def crafted_graph(layers=6, act_bytes=PAGE * 8):
    """A chain whose every forward activation is consumed by its mirrored
    backward layer — maximally regular, so planning quantities are exact."""
    b = GraphBuilder("crafted", batch_size=1)
    w = b.weight("w", PAGE * 2)
    x = b.input("x", act_bytes)
    acts = []
    current = x
    for index in range(layers):
        with b.layer(f"fwd{index}"):
            out = b.tensor(f"act{index}", act_bytes)
            b.op(f"f{index}", flops=1e7, reads=[current, w], writes=[out])
        acts.append(out)
        current = out
    grad = None
    for index in reversed(range(layers)):
        with b.layer(f"bwd{index}", Phase.BACKWARD):
            new_grad = b.tensor(f"grad{index}", act_bytes)
            reads = [acts[index]]
            if grad is not None:
                reads.append(grad)
            b.op(f"b{index}", flops=1e7, reads=reads, writes=[new_grad])
            # Weight update: makes the weight an initialized (written) run.
            b.op(f"apply{index}", flops=1e5, reads=[new_grad], writes=[w])
        grad = new_grad
    return b.finish()


def managed_policy(fast_pages=64, **config):
    graph = crafted_graph()
    machine = Machine.for_platform(OPTANE_HM, fast_capacity=fast_pages * PAGE)
    policy = SentinelPolicy(SentinelConfig(warmup_steps=0, **config))
    executor = Executor(graph, machine, policy)
    executor.run_step()  # profiling step (warmup=0)
    executor.run_step()  # first managed step finalizes the profile
    assert policy.mode == MANAGED
    return graph, machine, policy, executor


class TestAllocDemand:
    def test_per_layer_demand_matches_graph(self):
        graph, machine, policy, _ = managed_policy()
        act_bytes = PAGE * 8
        demand = policy._alloc_demand_by_layer
        # Every layer allocates exactly one long-lived tensor of act_bytes,
        # except the last backward layer: its gradient is written and never
        # read again, making it short-lived (excluded from the demand).
        assert demand[:-1] == [act_bytes] * (graph.num_layers - 1)
        assert demand[-1] == 0
        assert policy._alloc_demand == act_bytes

    def test_lookahead_windows(self):
        graph, machine, policy, _ = managed_policy()
        act_bytes = PAGE * 8
        policy._current_layer = 0
        assert policy._upcoming_alloc_demand(1) == act_bytes
        assert policy._upcoming_alloc_demand(2) == 2 * act_bytes
        # The final layer's gradient is short-lived: zero long-lived demand.
        policy._current_layer = graph.num_layers - 1
        assert policy._upcoming_alloc_demand(4) == 0
        # Just before it, exactly one long-lived allocation remains.
        policy._current_layer = graph.num_layers - 2
        assert policy._upcoming_alloc_demand(4) == act_bytes


class TestReservation:
    def test_reservation_equals_short_lived_peak(self):
        # The only short-lived tensor is the final backward gradient.
        graph, machine, policy, _ = managed_policy()
        act_bytes = PAGE * 8
        assert policy.plan.reserved_short_bytes == act_bytes
        assert policy._reservation_headroom() == act_bytes

    def test_reservation_disabled_by_config(self):
        graph, machine, policy, _ = managed_policy(reserve_short=False)
        assert policy._reservation_headroom() == 0


class TestSpaceDeficit:
    def test_deficit_negative_when_fast_is_empty_and_nothing_pending(self):
        graph, machine, policy, executor = managed_policy(fast_pages=4096)
        policy._current_layer = 0
        assert policy._space_deficit(executor.clock.now) <= 0

    def test_deficit_counts_next_interval_slow_bytes(self):
        graph, machine, policy, executor = managed_policy(fast_pages=64)
        now = executor.clock.now
        # Stand at the start of the backward half: the next interval's
        # saved activations are on slow and must be counted.
        mil = policy.plan.interval_length
        boundary = (graph.num_layers // (2 * mil)) * mil
        policy._current_layer = boundary
        deficit = policy._space_deficit(now)
        slack = max(machine.fast.capacity // 20, policy._upcoming_alloc_demand())
        if not policy.residency:
            slack += policy._upcoming_alloc_demand(4)
        # Deficit is bounded by demand minus free (no pending, no inflight).
        assert deficit <= slack + policy.plan.reserved_short_bytes + sum(
            t.nbytes for t in graph.tensors
        )


class TestPrefetchBudget:
    def test_prefetch_respects_headroom_budget(self):
        graph, machine, policy, executor = managed_policy(fast_pages=64)
        now = executor.clock.now
        runs = [machine.page_table.map_run(16, DeviceKind.SLOW) for _ in range(8)]
        machine.slow.allocate(8 * 16 * PAGE)
        for run in runs:
            run.initialized = True
        headroom = machine.fast.free - 16 * PAGE  # room for exactly one run
        transfers, skipped = policy._promote_with_headroom(runs, now, headroom)
        promoted_pages = sum(
            r.npages for t in transfers for r in [None] if False
        )
        # One run fits the budget (minus the allocation window), the rest
        # are returned for retry.
        assert len(transfers) <= 2
        assert len(skipped) >= len(runs) - 2

    def test_fast_resident_runs_are_dropped_not_skipped(self):
        graph, machine, policy, executor = managed_policy(fast_pages=256)
        now = executor.clock.now
        machine.fast.allocate(4 * PAGE)
        resident = machine.page_table.map_run(4, DeviceKind.FAST)
        transfers, skipped = policy._promote_with_headroom([resident], now, 0)
        assert transfers == []
        assert skipped == []


class TestOnAccessPromotion:
    def test_slow_access_triggers_async_promotion(self):
        graph, machine, policy, executor = managed_policy(fast_pages=4096)
        executor.run_step()
        # Find a long-lived tensor mapping and force it to slow.
        tid, mapping = next(
            (tid, m)
            for tid, m in executor.allocator.mapping_table().items()
            if not policy.profile.tensors[tid].short_lived
            and policy.profile.tensors[tid].next_touch_after(0) is not None
        )
        machine.migration.demote(mapping.runs(), executor.clock.now)
        machine.migration.sync(float("inf"))
        before = machine.stats.counter("migration.promoted_bytes").value
        policy._current_layer = 1
        policy._promote_on_access(
            graph.tensors[tid], mapping, executor.clock.now
        )
        after = machine.stats.counter("migration.promoted_bytes").value
        assert after > before

    def test_never_used_again_is_left_alone(self):
        graph, machine, policy, executor = managed_policy(fast_pages=4096)
        executor.run_step()
        # A tensor with no future touches must not be promoted.
        record = next(iter(policy.profile.tensors.values()))
        policy._current_layer = graph.num_layers  # past every touch
        tid = record.tid
        mapping = executor.allocator.mapping_table().get(tid)
        if mapping is None:
            pytest.skip("tensor not live at this point")
        before = machine.stats.counter("migration.promoted_bytes").value
        policy._promote_on_access(graph.tensors[tid], mapping, executor.clock.now)
        assert machine.stats.counter("migration.promoted_bytes").value == before


class TestShortLivedPinning:
    def test_pool_runs_are_pinned(self):
        """§IV-C: short-lived tensors' fast-memory pages are pinned — the
        migration engine structurally refuses to move them."""
        from repro.models import build_model

        graph = build_model("dcgan", batch_size=32)
        machine = Machine.for_platform(
            OPTANE_HM, fast_capacity=int(graph.peak_memory_bytes() * 0.3)
        )
        policy = SentinelPolicy(SentinelConfig(warmup_steps=1))
        pinned_seen = []
        original = SentinelPolicy.on_alloc

        def spy(self, tensor, mapping, now):
            original(self, tensor, mapping, now)
            if self.mode == MANAGED and tensor.short_lived:
                pinned_seen.extend(
                    share.run.pinned
                    for share in mapping.shares
                    if share.run.device is DeviceKind.FAST
                )

        SentinelPolicy.on_alloc = spy
        try:
            Executor(graph, machine, policy).run_steps(4)
        finally:
            SentinelPolicy.on_alloc = original
        assert pinned_seen and all(pinned_seen)

    def test_no_pinning_without_reservation(self):
        from repro.models import build_model

        graph = build_model("dcgan", batch_size=32)
        machine = Machine.for_platform(
            OPTANE_HM, fast_capacity=int(graph.peak_memory_bytes() * 0.3)
        )
        policy = SentinelPolicy(
            SentinelConfig(warmup_steps=1, reserve_short=False)
        )
        Executor(graph, machine, policy).run_steps(4)
        machine.migration.sync(float("inf"))
        assert not any(e.pinned for e in machine.page_table.entries())
