"""Differential check: stats counters vs quantities re-derived from the trace.

The simulator double-books everything interesting — once in
:class:`~repro.obs.metrics.MetricsRegistry` counters (and component-level
attributes), once as structured events.  The two are written by the same
code paths but through different machinery; if they ever disagree, either
the counters or the trace is lying.  These tests re-derive every counter
from the trace with :class:`~repro.obs.TraceQuery` and demand equality.

The trace is also the only record of what a run did over time, so
:class:`TestTraceDerivations` pins the derivations that replace sampled
metrics: channel queueing delays and the Figure 9 bandwidth series.
"""

import pytest

from repro.chaos import ChaosConfig, FaultInjector
from repro.core import SentinelConfig
from repro.core.runtime import SentinelPolicy
from repro.dnn.executor import Executor
from repro.mem.platforms import OPTANE_HM
from repro.mem.machine import Machine
from repro.models.zoo import build_model
from repro.obs import EventTracer, TraceQuery
from repro.sim.sums import ordered_sum


def traced_machine_run(fault_rate=0.0, seed=7, steps=12):
    tracer = EventTracer()
    graph = build_model("dcgan", batch_size=8)
    injector = (
        FaultInjector(ChaosConfig.uniform(fault_rate, seed=seed))
        if fault_rate > 0.0
        else None
    )
    machine = Machine.for_platform(
        OPTANE_HM,
        fast_capacity=int(graph.peak_memory_bytes() * 0.25),
        injector=injector,
        tracer=tracer,
    )
    policy = SentinelPolicy(SentinelConfig(warmup_steps=2))
    Executor(graph, machine, policy).run_steps(steps)
    return TraceQuery(tracer.events), machine, injector, policy


@pytest.fixture(scope="module")
def chaotic():
    return traced_machine_run(fault_rate=0.25)


@pytest.fixture(scope="module")
def clean():
    return traced_machine_run()


class TestMigrationCounters:
    def test_promoted_bytes(self, chaotic):
        query, machine, _, _ = chaotic
        assert query.filter(cat="migration", name="promote").sum_arg(
            "nbytes"
        ) == machine.stats.counter("migration.promoted_bytes").value

    def test_demoted_bytes(self, chaotic):
        query, machine, _, _ = chaotic
        assert query.filter(cat="migration", name="demote").sum_arg(
            "nbytes"
        ) == machine.stats.counter("migration.demoted_bytes").value

    def test_aborted_bytes(self, chaotic):
        query, machine, _, _ = chaotic
        assert query.filter(cat="chaos", name="abort").sum_arg(
            "nbytes"
        ) == machine.stats.counter("migration.aborted_bytes").value

    def test_busy_fallbacks(self, chaotic):
        query, machine, _, _ = chaotic
        assert (
            query.filter(cat="migration", name="busy-fallback").count()
            == machine.stats.counter("migration.busy_fallbacks").value
        )


class TestChannelCounters:
    @pytest.mark.parametrize("channel_attr", ["promote", "demote", "demand"])
    def test_bytes_moved_per_channel(self, chaotic, channel_attr):
        query, machine, _, _ = chaotic
        channel = getattr(machine, f"{channel_attr}_channel")
        traced = query.filter(cat="channel", track=channel.name).sum_arg("nbytes")
        assert traced == channel.bytes_moved

    def test_busy_time_per_channel(self, chaotic):
        query, machine, _, _ = chaotic
        for channel in (
            machine.promote_channel,
            machine.demote_channel,
            machine.demand_channel,
        ):
            traced = query.total_span_time(cat="channel", track=channel.name)
            assert traced == pytest.approx(channel.busy_time, rel=1e-12)

    def test_aborted_transfers_per_channel(self, chaotic):
        query, machine, _, _ = chaotic
        for channel in (
            machine.promote_channel,
            machine.demote_channel,
            machine.demand_channel,
        ):
            traced = query.filter(
                cat="channel",
                track=channel.name,
                predicate=lambda e: e.args.get("aborted"),
            ).count()
            assert traced == channel.aborted_transfers


class TestTraceDerivations:
    @pytest.mark.parametrize("run", ["clean", "chaotic"])
    @pytest.mark.parametrize("channel_attr", ["promote", "demote", "demand"])
    def test_mean_queued_arg_is_mean_queueing_delay(self, request, run, channel_attr):
        query, machine, _, _ = request.getfixturevalue(run)
        channel = getattr(machine, f"{channel_attr}_channel")
        queued = [
            event.args["queued"]
            for event in query.filter(cat="channel", name="xfer", track=channel.name)
        ]
        assert queued, f"{channel.name} carried no transfers"
        # The channel adds the delays left to right, in submission order.
        assert ordered_sum(queued) / len(queued) == channel.mean_queueing_delay

    @pytest.mark.parametrize("run", ["clean", "chaotic"])
    @pytest.mark.parametrize(
        "direction,counter",
        [
            ("promote", "migration.promoted_bytes"),
            ("demote", "migration.demoted_bytes"),
        ],
    )
    def test_bandwidth_series_integrates_to_migrated_bytes(
        self, request, run, direction, counter
    ):
        query, machine, _, _ = request.getfixturevalue(run)
        width = 0.01
        series = query.span_rate_series(width, cat="migration", name=direction)
        moved = machine.stats.counter(counter).value
        assert series and moved > 0
        assert ordered_sum(rate * width for _, rate in series) == pytest.approx(
            moved, rel=1e-9
        )


class TestFaultCounters:
    def test_faults_taken(self, chaotic):
        query, machine, _, _ = chaotic
        traced = query.filter(cat="fault", name="protection-fault").sum_arg(
            "faults"
        )
        assert traced == machine.fault_handler.faults_taken

    def test_faults_dropped(self, chaotic):
        query, machine, _, _ = chaotic
        traced = query.filter(cat="fault", name="protection-fault").sum_arg(
            "dropped"
        )
        assert traced == machine.fault_handler.faults_dropped

    def test_fault_overhead(self, chaotic):
        query, machine, _, _ = chaotic
        traced = query.filter(cat="fault", name="protection-fault").sum_arg(
            "cost"
        )
        assert traced == pytest.approx(machine.fault_handler.overhead, rel=1e-9)


class TestInjectorCounters:
    def test_every_injected_count_matches_its_instants(self, chaotic):
        query, _, injector, _ = chaotic
        assert injector is not None and injector.counts, "chaos never fired"
        for key, count in injector.counts.items():
            name = key.partition("chaos.")[2] or key
            traced = query.filter(cat="chaos", name=name).sum_arg("amount")
            assert traced == count, f"{key}: trace={traced} counter={count}"


class TestPolicyCounters:
    def test_case3_occurrences(self, clean):
        query, _, _, policy = clean
        traced = query.filter(cat="prefetch", name="case3").count()
        assert traced == policy.case3_occurrences

    def test_case2_occurrences(self, clean):
        query, _, _, policy = clean
        traced = query.filter(
            cat="prefetch",
            name="prefetch",
            predicate=lambda e: e.args.get("case2"),
        ).count()
        assert traced == policy.case2_occurrences

    def test_clean_run_emits_no_chaos_events(self, clean):
        query, _, injector, _ = clean
        assert injector is None
        assert query.filter(cat="chaos").count() == 0


def traced_pressure_run(steps=12):
    from repro.mem.pressure import PressureConfig

    tracer = EventTracer()
    graph = build_model("dcgan", batch_size=8)
    machine = Machine.for_platform(
        OPTANE_HM,
        fast_capacity=int(graph.peak_memory_bytes() * 0.08),
        tracer=tracer,
        pressure=PressureConfig.watermarks(0.6, 0.8, reserve_frames=16),
    )
    policy = SentinelPolicy(SentinelConfig(warmup_steps=2))
    Executor(graph, machine, policy).run_steps(steps)
    return TraceQuery(tracer.events), machine


@pytest.fixture(scope="module")
def pressured():
    return traced_pressure_run()


class TestPressureCounters:
    """Every pressure.* counter must be re-derivable from the trace."""

    def test_governor_was_actually_active(self, pressured):
        query, machine = pressured
        assert query.filter(cat="pressure").count() > 0, (
            "the fixture no longer exercises the governor; "
            "tighten its capacity or watermarks"
        )

    @pytest.mark.parametrize(
        "counter,event",
        [
            ("pressure.spills", "spill"),
            ("pressure.refused_promotions", "refused-promotion"),
            ("pressure.reclaims", "reclaim"),
            ("pressure.low_crossings", "watermark-low-enter"),
            ("pressure.high_crossings", "watermark-high-enter"),
        ],
    )
    def test_event_counts(self, pressured, counter, event):
        query, machine = pressured
        traced = query.filter(cat="pressure", name=event).count()
        assert traced == machine.stats.counter(counter).value

    @pytest.mark.parametrize(
        "counter,event",
        [
            ("pressure.spilled_bytes", "spill"),
            ("pressure.refused_bytes", "refused-promotion"),
            ("pressure.reclaimed_bytes", "reclaim"),
        ],
    )
    def test_byte_sums(self, pressured, counter, event):
        query, machine = pressured
        traced = query.filter(cat="pressure", name=event).sum_arg("nbytes")
        assert traced == machine.stats.counter(counter).value

    def test_reclaimed_bytes_flow_through_demote_channel(self, pressured):
        query, machine = pressured
        reclaim_tagged = query.filter(
            cat="migration",
            name="demote",
            predicate=lambda e: e.args.get("tag") == "pressure-reclaim",
        ).sum_arg("nbytes")
        assert (
            reclaim_tagged
            == machine.stats.counter("pressure.reclaimed_bytes").value
        )


class TestCompactionCounters:
    def make_fragmented_arena(self):
        from repro.dnn.arena import ArenaAllocator
        from repro.dnn.tensor import Tensor, TensorKind
        from repro.mem.devices import DeviceKind

        tracer = EventTracer()
        machine = Machine.for_platform(
            OPTANE_HM, fast_capacity=1 << 24, tracer=tracer
        )
        arena = ArenaAllocator(machine, lambda tensor, now: DeviceKind.SLOW)
        slab = ArenaAllocator.SLAB_PAGES * machine.page_size
        tensors = []
        for tid in range(6):
            tensor = Tensor(
                tid=tid, name=f"t{tid}", nbytes=slab // 2, kind=TensorKind.TEMP
            )
            tensor.alloc_layer = tensor.free_layer = 0
            arena.alloc(tensor, now=0.0)
            tensors.append(tensor)
        for tensor in tensors[1::2]:  # every second tenant leaves
            arena.free(tensor, now=0.0)
        return machine, arena, tracer

    def test_compaction_span_args_match_counters(self):
        machine, arena, tracer = self.make_fragmented_arena()
        arena.compact(now=0.0, max_moves=8)
        arena.compact(now=1.0, max_moves=8)  # second pass may be a no-op
        query = TraceQuery(tracer.events)
        spans = query.filter(cat="pressure", name="compaction")
        stats = machine.stats
        assert (
            spans.count() == stats.counter("pressure.compaction_passes").value
        )
        for arg, counter in (
            ("moves", "pressure.compaction_moves"),
            ("moved_bytes", "pressure.compaction_bytes"),
            ("freed_bytes", "pressure.compaction_freed_bytes"),
        ):
            assert spans.sum_arg(arg) == stats.counter(counter).value

    def test_relocations_match_engine_counter(self):
        machine, arena, tracer = self.make_fragmented_arena()
        report = arena.compact(now=0.0, max_moves=8)
        assert report.moves > 0, "fixture produced nothing to compact"
        assert (
            machine.stats.counter("migration.relocated_bytes").value
            == report.moved_bytes
        )
