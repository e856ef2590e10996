"""Pressure governor: watermarks, reserve pool, spill fallback, reclaim."""

import pytest

from repro.errors import DeviceFullError
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM
from repro.mem.pressure import PressureConfig, PressureGovernor
from repro.obs import EventTracer

PAGE = OPTANE_HM.page_size


def make_machine(fast_pages=64, tracer=None, **pressure_kwargs):
    config = PressureConfig(**pressure_kwargs) if pressure_kwargs else None
    return Machine.for_platform(
        OPTANE_HM,
        fast_capacity=fast_pages * PAGE,
        tracer=tracer,
        pressure=config,
    )


def fill_fast(machine, npages, initialized=True, now=0.0):
    run = machine.map_run(npages, DeviceKind.FAST, now)
    run.initialized = initialized
    return run


class TestPressureConfig:
    def test_defaults_are_disabled(self):
        config = PressureConfig()
        assert not config.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"low_watermark": 0.0},
            {"low_watermark": 1.5},
            {"low_watermark": 0.9, "high_watermark": 0.5},
            {"high_watermark": 1.2},
            {"reserve_frames": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PressureConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"low_watermark": 0.5},
            {"low_watermark": 0.5, "high_watermark": 0.9},
            {"reserve_frames": 4},
        ],
    )
    def test_any_real_knob_enables(self, kwargs):
        assert PressureConfig(**kwargs).enabled

    def test_watermarks_constructor(self):
        config = PressureConfig.watermarks(0.6, 0.8, reserve_frames=16)
        assert config.low_watermark == 0.6
        assert config.high_watermark == 0.8
        assert config.reserve_frames == 16


class TestGovernorWiring:
    def test_disabled_config_builds_no_governor(self):
        machine = Machine.for_platform(
            OPTANE_HM, fast_capacity=PAGE * 8, pressure=PressureConfig()
        )
        assert machine.pressure is None
        assert machine.migration.governor is None

    def test_no_config_builds_no_governor(self):
        machine = Machine.for_platform(OPTANE_HM, fast_capacity=PAGE * 8)
        assert machine.pressure is None

    def test_enabled_config_wires_engine(self):
        machine = make_machine(low_watermark=0.5, high_watermark=0.8)
        assert isinstance(machine.pressure, PressureGovernor)
        assert machine.migration.governor is machine.pressure


class TestReservePool:
    def test_reserve_bytes(self):
        machine = make_machine(reserve_frames=8)
        assert machine.pressure.reserve_bytes == 8 * PAGE

    def test_urgent_sees_true_free(self):
        machine = make_machine(fast_pages=64, reserve_frames=8)
        fill_fast(machine, 32)
        governor = machine.pressure
        assert governor.available(urgent=True) == 32 * PAGE
        assert governor.available(urgent=False) == 24 * PAGE

    def test_background_promotion_cannot_consume_reserve(self):
        machine = make_machine(fast_pages=16, reserve_frames=8)
        fill_fast(machine, 8)  # free = 8 pages, all of it reserve
        victim = machine.map_run(4, DeviceKind.SLOW)
        _, scheduled, skipped = machine.migration.promote([victim], now=0.0)
        assert scheduled == []
        assert skipped and skipped[0].vpn == victim.vpn

    def test_urgent_promotion_consumes_reserve(self):
        machine = make_machine(fast_pages=16, reserve_frames=8)
        fill_fast(machine, 8)
        victim = machine.map_run(4, DeviceKind.SLOW)
        transfer, scheduled, skipped = machine.migration.promote(
            [victim], now=0.0, urgent=True
        )
        assert transfer is not None and skipped == []
        assert scheduled[0].vpn == victim.vpn

    def test_background_promotion_splits_at_reserve_boundary(self):
        machine = make_machine(fast_pages=16, reserve_frames=8)
        fill_fast(machine, 4)  # 12 free, 4 above the reserve
        victim = machine.map_run(8, DeviceKind.SLOW)
        _, scheduled, skipped = machine.migration.promote([victim], now=0.0)
        assert sum(r.npages for r in scheduled) == 4
        assert sum(r.npages for r in skipped) == 4


class TestAllocationSpill:
    def test_oversized_fast_request_spills_to_slow(self):
        machine = make_machine(fast_pages=16, reserve_frames=4)
        fill_fast(machine, 8)
        run = machine.map_run(8, DeviceKind.FAST)  # > 4 admissible pages
        assert run.device is DeviceKind.SLOW
        assert machine.stats.counter("pressure.spills").value == 1
        assert (
            machine.stats.counter("pressure.spilled_bytes").value == 8 * PAGE
        )

    def test_request_past_high_watermark_spills(self):
        machine = make_machine(fast_pages=64, low_watermark=0.5, high_watermark=0.5)
        run = machine.map_run(40, DeviceKind.FAST)  # 40/64 > 0.5
        assert run.device is DeviceKind.SLOW
        assert machine.stats.counter("pressure.spills").value == 1

    def test_admissible_request_stays_fast(self):
        machine = make_machine(fast_pages=64, low_watermark=0.5, high_watermark=0.5)
        run = machine.map_run(16, DeviceKind.FAST)
        assert run.device is DeviceKind.FAST
        assert machine.stats.counter("pressure.spills").value == 0

    def test_no_governor_raises_as_before(self):
        machine = make_machine(fast_pages=16)
        fill_fast(machine, 14)
        with pytest.raises(DeviceFullError):
            machine.map_run(8, DeviceKind.FAST)

    def test_spill_emits_trace_instant(self):
        tracer = EventTracer()
        machine = make_machine(
            fast_pages=16, low_watermark=0.5, high_watermark=0.5, tracer=tracer
        )
        machine.map_run(12, DeviceKind.FAST)
        spills = [
            e for e in tracer.events if e.cat == "pressure" and e.name == "spill"
        ]
        assert len(spills) == 1
        assert spills[0].args["nbytes"] == 12 * PAGE


def promote_urgent(machine, npages, now=0.0):
    """Push fast usage up through the demand lane (admission can't stop it)."""
    run = machine.map_run(npages, DeviceKind.SLOW, now)
    run.initialized = True
    transfer, scheduled, _ = machine.migration.promote([run], now, urgent=True)
    assert transfer is not None and scheduled
    machine.migration.sync(transfer.finish)
    return run


class TestPromotionRefusal:
    def test_background_refused_above_high(self):
        machine = make_machine(fast_pages=64, low_watermark=0.5, high_watermark=0.5)
        promote_urgent(machine, 40)
        victim = machine.map_run(4, DeviceKind.SLOW)
        transfer, scheduled, skipped = machine.migration.promote(
            [victim], now=0.0
        )
        assert transfer is None and scheduled == []
        assert skipped[0].vpn == victim.vpn
        assert machine.stats.counter("pressure.refused_promotions").value == 1
        assert (
            machine.stats.counter("pressure.refused_bytes").value == 4 * PAGE
        )

    def test_urgent_never_refused(self):
        machine = make_machine(fast_pages=64, low_watermark=0.5, high_watermark=0.5)
        promote_urgent(machine, 40)
        victim = machine.map_run(4, DeviceKind.SLOW)
        transfer, scheduled, _ = machine.migration.promote(
            [victim], now=0.0, urgent=True
        )
        assert transfer is not None and scheduled
        assert machine.stats.counter("pressure.refused_promotions").value == 0

    def test_refusal_emits_trace_instant(self):
        tracer = EventTracer()
        machine = make_machine(
            fast_pages=64, low_watermark=0.5, high_watermark=0.5, tracer=tracer
        )
        promote_urgent(machine, 40)
        victim = machine.map_run(4, DeviceKind.SLOW)
        machine.migration.promote([victim], now=0.0)
        refused = [
            e
            for e in tracer.events
            if e.cat == "pressure" and e.name == "refused-promotion"
        ]
        assert len(refused) == 1


class TestReclaim:
    def test_crossing_low_demotes_cold_runs(self):
        machine = make_machine(fast_pages=64, low_watermark=0.5)
        runs = [fill_fast(machine, 8) for _ in range(5)]  # 40/64 > 0.5
        governor = machine.pressure
        assert machine.stats.counter("pressure.reclaims").value >= 1
        machine.migration.sync(1e9)
        assert governor.used_fraction() <= 0.5
        demoted = [r for r in runs if r.device is DeviceKind.SLOW]
        assert demoted, "reclaim never demoted anything"

    def test_pinned_and_uninitialized_runs_survive_reclaim(self):
        machine = make_machine(fast_pages=64, low_watermark=0.5)
        pinned = fill_fast(machine, 8)
        pinned.pinned = True
        fresh = fill_fast(machine, 8, initialized=False)
        for _ in range(4):
            fill_fast(machine, 8)
        machine.migration.sync(1e9)
        assert pinned.device is DeviceKind.FAST
        assert fresh.device is DeviceKind.FAST

    def test_reclaim_counts_inflight_demotes(self):
        """Back-to-back usage notes must not over-demote."""
        machine = make_machine(fast_pages=64, low_watermark=0.5)
        for _ in range(5):
            fill_fast(machine, 8)
        first = machine.stats.counter("pressure.reclaims").value
        machine.pressure.note_usage(0.0)  # demotes still in flight
        assert machine.stats.counter("pressure.reclaims").value == first

    def test_crossings_traced_and_counted(self):
        tracer = EventTracer()
        machine = make_machine(
            fast_pages=64, low_watermark=0.5, high_watermark=0.75, tracer=tracer
        )
        for _ in range(7):
            fill_fast(machine, 8)  # 56/64 crosses both watermarks
        names = {
            e.name for e in tracer.events if e.cat == "pressure"
        }
        assert "watermark-low-enter" in names
        assert "watermark-high-enter" in names
        assert machine.stats.counter("pressure.low_crossings").value >= 1
        assert machine.stats.counter("pressure.high_crossings").value >= 1
        machine.migration.sync(1e9)
        # Reclaim stops *at* the low watermark; drop usage below it so the
        # exit edge actually fires.
        for run in list(machine.page_table.entries()):
            if run.device is DeviceKind.FAST and not run.in_flight:
                machine.unmap_run(run, now=1e9)
        machine.pressure.note_usage(1e9)
        names = {e.name for e in tracer.events if e.cat == "pressure"}
        assert "watermark-low-exit" in names

    def test_withheld_frames_push_governor_over_watermark(self):
        machine = make_machine(fast_pages=64, low_watermark=0.5, high_watermark=0.75)
        fill_fast(machine, 8)
        assert machine.pressure.used_fraction() < 0.5
        # Withheld frames (RAS page retirement) are unusable space.
        machine.fast.reserve(48 * PAGE)  # 56/64 occupied
        machine.pressure.note_usage(0.0)
        assert machine.pressure.used_fraction() > 0.75
        assert machine.stats.counter("pressure.high_crossings").value == 1


class TestDisabledIsByteIdentical:
    def test_disabled_config_trace_matches_no_config(self):
        """The governor's existence must be unobservable when disabled."""

        def traced_run(pressure):
            from repro.harness.runner import run_policy

            tracer = EventTracer()
            run_policy(
                "sentinel",
                model="dcgan",
                fast_fraction=0.2,
                steady_steps=4,
                tracer=tracer,
                pressure=pressure,
            )
            return [
                (e.name, e.cat, e.ts, e.dur, tuple(sorted(e.args.items())))
                for e in tracer.events
            ]

        assert traced_run(None) == traced_run(PressureConfig())
