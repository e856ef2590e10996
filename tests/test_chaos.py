"""Fault injection and invariant auditing (the chaos layer).

Covers the three contract pillars: determinism (same seed, same faults),
pay-for-what-you-use (zero rates touch nothing), and graceful degradation
(the engine retries/rolls back instead of raising).
"""

import dataclasses

import pytest

from repro.chaos import ChaosConfig, FaultInjector, InvariantAuditor
from repro.dnn.executor import Executor
from repro.errors import ConsistencyError
from repro.mem.devices import DeviceKind, DeviceSpec, MemoryDevice
from repro.mem.machine import Machine
from repro.mem.migration import MigrationEngine
from repro.mem.page import PageTable
from repro.mem.platforms import OPTANE_HM
from repro.models import build_model
from repro.sim.channel import BandwidthChannel

PAGE = 4096


class TestChaosConfig:
    @pytest.mark.parametrize(
        "field",
        [
            "migration_busy_rate",
            "migration_abort_rate",
            "device_throttle_rate",
            "profile_drop_rate",
        ],
    )
    def test_rates_outside_unit_interval_rejected(self, field):
        with pytest.raises(ValueError):
            ChaosConfig(**{field: 1.5})
        with pytest.raises(ValueError):
            ChaosConfig(**{field: -0.1})

    def test_uniform_spreads_the_headline_rate(self):
        config = ChaosConfig.uniform(0.2, seed=7)
        assert config.seed == 7
        assert config.migration_busy_rate == 0.2
        assert config.migration_abort_rate == 0.1
        assert config.device_throttle_rate == 0.2
        assert config.profile_drop_rate == 0.2

    def test_uniform_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChaosConfig.uniform(1.2)

    def test_reseeded_changes_only_the_seed(self):
        config = ChaosConfig.uniform(0.2, seed=1)
        other = config.reseeded(99)
        assert other.seed == 99
        assert dataclasses.replace(other, seed=1) == config


class TestFaultInjectorDeterminism:
    def test_same_seed_same_draw_sequence(self):
        config = ChaosConfig(seed=42, migration_busy_rate=0.5)
        a = FaultInjector(config)
        b = FaultInjector(config)
        assert [a.migration_busy() for _ in range(200)] == [
            b.migration_busy() for _ in range(200)
        ]
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        base = ChaosConfig(migration_busy_rate=0.5)
        a = FaultInjector(base.reseeded(1))
        b = FaultInjector(base.reseeded(2))
        assert [a.migration_busy() for _ in range(200)] != [
            b.migration_busy() for _ in range(200)
        ]

    def test_streams_are_independent(self):
        """Consuming one concern's stream must not shift another's draws."""
        config = ChaosConfig(
            seed=3, migration_busy_rate=0.5, device_throttle_rate=0.5
        )
        undisturbed = FaultInjector(config)
        expected = [undisturbed.migration_busy() for _ in range(100)]
        disturbed = FaultInjector(config)
        for _ in range(100):
            disturbed.device_slowdown(DeviceKind.SLOW, is_write=True)
        assert [disturbed.migration_busy() for _ in range(100)] == expected


class TestZeroRateNeutrality:
    def test_zero_rates_consume_no_randomness(self):
        injector = FaultInjector(ChaosConfig())
        states = (
            injector._migration_rng.getstate(),
            injector._device_rng.getstate(),
            injector._profile_rng.getstate(),
        )
        assert not injector.migration_busy()
        assert not injector.migration_abort()
        assert injector.device_slowdown(DeviceKind.SLOW, is_write=True) == 1.0
        assert injector.drop_faults(1000) == 0
        assert states == (
            injector._migration_rng.getstate(),
            injector._device_rng.getstate(),
            injector._profile_rng.getstate(),
        )
        assert injector.counts == {}

    def test_fast_tier_never_throttled(self):
        injector = FaultInjector(ChaosConfig(device_throttle_rate=1.0))
        assert injector.device_slowdown(DeviceKind.FAST, is_write=True) == 1.0
        assert injector.counts == {}


class TestDropFaults:
    def test_full_rate_drops_everything(self):
        injector = FaultInjector(ChaosConfig(profile_drop_rate=1.0))
        assert injector.drop_faults(123) == 123
        assert injector.counts["chaos.profile_faults_dropped"] == 123

    def test_partial_rate_rounds_to_adjacent_integers(self):
        injector = FaultInjector(ChaosConfig(profile_drop_rate=0.5))
        for _ in range(20):
            assert injector.drop_faults(9) in (4, 5)

    def test_no_faults_no_drops(self):
        injector = FaultInjector(ChaosConfig(profile_drop_rate=1.0))
        assert injector.drop_faults(0) == 0


class TestDeviceThrottle:
    def make_device(self, injector):
        spec = DeviceSpec("optane", 1 << 30, 1e9, 1e9)
        return MemoryDevice(spec, DeviceKind.SLOW, injector=injector)

    def test_write_throttled_by_full_factor(self):
        injector = FaultInjector(ChaosConfig(device_throttle_rate=1.0))
        device = self.make_device(injector)
        base = MemoryDevice(device.spec, DeviceKind.SLOW).access_time(
            1 << 20, is_write=True
        )
        assert device.access_time(1 << 20, is_write=True) == pytest.approx(base * 4.0)

    def test_read_degrades_half_as_hard(self):
        injector = FaultInjector(ChaosConfig(device_throttle_rate=1.0))
        device = self.make_device(injector)
        base = MemoryDevice(device.spec, DeviceKind.SLOW).access_time(
            1 << 20, is_write=False
        )
        # Read factor is (1 + 0.25) / 2 = 0.625 of nominal bandwidth.
        assert device.access_time(1 << 20, is_write=False) == pytest.approx(
            base / 0.625
        )

    def test_zero_rate_is_bit_identical(self):
        injector = FaultInjector(ChaosConfig())
        device = self.make_device(injector)
        clean = MemoryDevice(device.spec, DeviceKind.SLOW)
        for nbytes in (0, 1, PAGE, 1 << 20):
            assert device.access_time(nbytes, True) == clean.access_time(nbytes, True)


def make_engine(injector, fast_pages=16, slow_pages=1024):
    table = PageTable(page_size=PAGE)
    fast = MemoryDevice(
        DeviceSpec("fast", fast_pages * PAGE, 1e9, 1e9), DeviceKind.FAST
    )
    slow = MemoryDevice(
        DeviceSpec("slow", slow_pages * PAGE, 1e8, 1e8), DeviceKind.SLOW
    )
    engine = MigrationEngine(
        table,
        fast,
        slow,
        BandwidthChannel(1e6, "promote"),
        BandwidthChannel(1e6, "demote"),
        injector=injector,
    )
    return table, fast, slow, engine


def map_on(table, device, npages, fast, slow):
    run = table.map_run(npages, device)
    (fast if device is DeviceKind.FAST else slow).allocate(npages * PAGE)
    return run


class TestMigrationBusy:
    def test_background_promote_refused_after_retries(self):
        config = ChaosConfig(migration_busy_rate=1.0)
        table, fast, slow, engine = make_engine(FaultInjector(config))
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        transfer, scheduled, skipped = engine.promote([run], now=0.0)
        assert transfer is None
        assert scheduled == []
        assert skipped == [run]
        # Nothing moved, nothing reserved: degradation left the books alone.
        assert fast.used == 0
        assert slow.used == 4 * PAGE
        assert not run.in_flight
        assert (
            engine.stats.counter("migration.retries").value
            == MigrationEngine.MAX_RETRIES
        )
        assert engine.stats.counter("migration.busy_fallbacks").value == 1

    def test_urgent_promote_never_refused(self):
        config = ChaosConfig(migration_busy_rate=1.0)
        table, fast, slow, engine = make_engine(FaultInjector(config))
        run = map_on(table, DeviceKind.SLOW, 2, fast, slow)
        transfer, scheduled, skipped = engine.promote([run], now=0.0, urgent=True)
        assert transfer is not None
        assert scheduled == [run]
        # Every retry paid backoff, so the submission starts strictly later.
        assert transfer.start > 0.0
        assert (
            engine.stats.counter("migration.retries").value
            == MigrationEngine.URGENT_RETRY_CAP
        )

    def test_background_demote_refused_leaves_runs_on_fast(self):
        config = ChaosConfig(migration_busy_rate=1.0)
        table, fast, slow, engine = make_engine(FaultInjector(config))
        run = map_on(table, DeviceKind.FAST, 4, fast, slow)
        transfer, scheduled = engine.demote([run], now=0.0)
        assert transfer is None
        assert scheduled == []
        assert fast.used == 4 * PAGE
        assert slow.used == 0

    def test_retry_can_succeed_midway(self):
        """At a middling rate, some submissions survive the retry loop."""
        config = ChaosConfig(seed=5, migration_busy_rate=0.5)
        table, fast, slow, engine = make_engine(
            FaultInjector(config), fast_pages=256
        )
        outcomes = []
        for _ in range(20):
            run = map_on(table, DeviceKind.SLOW, 1, fast, slow)
            transfer, _, _ = engine.promote([run], now=0.0)
            outcomes.append(transfer is not None)
        assert any(outcomes)


class TestMigrationAbort:
    def test_background_abort_rolls_back_promote(self):
        config = ChaosConfig(migration_abort_rate=1.0)
        table, fast, slow, engine = make_engine(FaultInjector(config))
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        transfer, scheduled, skipped = engine.promote([run], now=0.0)
        assert transfer is None
        assert scheduled == []
        assert skipped == [run]
        assert fast.used == 0
        assert slow.used == 4 * PAGE
        assert run.device is DeviceKind.SLOW
        assert not run.in_flight
        # Channel time was burned for the half that crossed before the wreck.
        assert engine.promote_channel.aborted_transfers == 1
        assert engine.stats.counter("migration.aborted_bytes").value == 2 * PAGE

    def test_background_abort_rolls_back_demote(self):
        config = ChaosConfig(migration_abort_rate=1.0)
        table, fast, slow, engine = make_engine(FaultInjector(config))
        run = map_on(table, DeviceKind.FAST, 4, fast, slow)
        transfer, scheduled = engine.demote([run], now=0.0)
        assert transfer is None and scheduled == []
        assert fast.used == 4 * PAGE
        assert slow.used == 0

    def test_urgent_resubmits_until_a_copy_survives(self):
        config = ChaosConfig(seed=11, migration_abort_rate=0.5)
        table, fast, slow, engine = make_engine(FaultInjector(config))
        run = map_on(table, DeviceKind.SLOW, 2, fast, slow)
        transfer, scheduled, _ = engine.promote([run], now=0.0, urgent=True)
        assert transfer is not None
        assert scheduled == [run]
        assert run.in_flight


class TestAuditor:
    def test_healthy_machine_passes(self):
        machine = Machine(OPTANE_HM)
        machine.map_run(4, DeviceKind.SLOW)
        machine.map_run(2, DeviceKind.FAST)
        auditor = InvariantAuditor(machine)
        auditor.audit()
        assert auditor.audits_run == 1

    def test_inflight_promotion_double_charge_window_is_legal(self):
        machine = Machine(OPTANE_HM)
        run = machine.map_run(4, DeviceKind.SLOW)
        machine.migration.promote([run], now=0.0)
        InvariantAuditor(machine).audit()

    def test_inflight_demotion_double_charge_window_is_legal(self):
        machine = Machine(OPTANE_HM)
        run = machine.map_run(4, DeviceKind.FAST)
        machine.migration.demote([run], now=0.0)
        InvariantAuditor(machine).audit()

    def test_phantom_fast_allocation_caught(self):
        machine = Machine(OPTANE_HM)
        machine.map_run(4, DeviceKind.SLOW)
        machine.fast.allocate(machine.page_size)  # no run backs this
        with pytest.raises(ConsistencyError, match="fast-usage-matches"):
            InvariantAuditor(machine).audit()

    def test_leaked_slow_release_caught(self):
        machine = Machine(OPTANE_HM)
        machine.map_run(4, DeviceKind.SLOW)
        machine.slow.release(machine.page_size)  # run still mapped
        with pytest.raises(ConsistencyError, match="slow-usage-matches"):
            InvariantAuditor(machine).audit()

    def test_self_migration_caught(self):
        machine = Machine(OPTANE_HM)
        run = machine.map_run(2, DeviceKind.SLOW)
        run.migrating_to = DeviceKind.SLOW
        with pytest.raises(ConsistencyError, match="destination-differs"):
            InvariantAuditor(machine).audit()

    def test_consistency_error_names_the_invariant(self):
        machine = Machine(OPTANE_HM)
        machine.map_run(1, DeviceKind.FAST)
        machine.fast.allocate(machine.page_size)
        with pytest.raises(ConsistencyError) as excinfo:
            InvariantAuditor(machine).audit()
        assert excinfo.value.invariant == "accounting.fast-usage-matches-page-table"

    def test_audit_fires_every_step_during_execution(self):
        graph = build_model("dcgan", batch_size=8)
        machine = Machine(OPTANE_HM)
        from repro.dnn.policy import PlacementPolicy

        auditor = InvariantAuditor(machine)
        Executor(graph, machine, PlacementPolicy(), observers=[auditor]).run_steps(2)
        assert auditor.audits_run == 2

    def test_mutation_mid_run_surfaces_as_consistency_error(self):
        """Deliberate corruption between steps is caught by the next audit."""
        graph = build_model("dcgan", batch_size=8)
        machine = Machine(OPTANE_HM)
        from repro.dnn.executor import StepObserver
        from repro.dnn.policy import PlacementPolicy

        class Saboteur(StepObserver):
            def on_step_end(self, step, result):
                if step == 0:
                    machine.slow.allocate(machine.page_size)

        # Auditor first: step 0's audit sees a healthy machine, then the
        # saboteur corrupts it; step 1's audit must catch the imbalance.
        auditor = InvariantAuditor(machine)
        executor = Executor(
            graph, machine, PlacementPolicy(), observers=[auditor, Saboteur()]
        )
        executor.run_step()
        with pytest.raises(ConsistencyError):
            executor.run_step()


class TestAuditorReservedChecks:
    def test_negative_reserved_caught(self):
        machine = Machine(OPTANE_HM)
        machine.fast.reserved = -1
        with pytest.raises(ConsistencyError, match="reserved-non-negative"):
            InvariantAuditor(machine).audit()

    def test_reserved_plus_used_over_capacity_caught(self):
        machine = Machine(OPTANE_HM)
        machine.fast.reserve(machine.fast.capacity)
        machine.fast.used = machine.page_size  # corruption: no room for it
        with pytest.raises(ConsistencyError, match="usage-within-capacity"):
            InvariantAuditor(machine).audit()

    def test_reserved_frames_keep_the_partition(self):
        machine = Machine.for_platform(OPTANE_HM, fast_capacity=64 * PAGE)
        machine.map_run(4, DeviceKind.FAST)
        machine.map_run(4, DeviceKind.SLOW)
        machine.fast.reserve(8 * PAGE)
        InvariantAuditor(machine).audit()  # reserved + used + free == capacity


class TestEpisodeValidation:
    def test_unknown_kind_rejected(self):
        from repro.chaos import Episode

        with pytest.raises(ValueError, match="unknown episode kind"):
            Episode("meteor-strike", start=0.0, duration=1.0)

    def test_bad_times_rejected(self):
        from repro.chaos import Episode

        with pytest.raises(ValueError, match="start"):
            Episode("machine-offline", start=-1.0, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            Episode("machine-offline", start=0.0, duration=0.0)

    def test_blackout_needs_target(self):
        from repro.chaos import Episode

        with pytest.raises(ValueError, match="target channel"):
            Episode("channel-blackout", start=0.0, duration=1.0)

    def test_end_is_start_plus_duration(self):
        from repro.chaos import Episode

        ep = Episode("machine-offline", start=2.0, duration=0.5)
        assert ep.end == 2.5

    def test_config_validation(self):
        from repro.chaos import EpisodeConfig

        with pytest.raises(ValueError, match="horizon"):
            EpisodeConfig(horizon=0.0)
        with pytest.raises(ValueError, match="machine_mtbf"):
            EpisodeConfig(machine_mtbf=-1.0)

    def test_config_enabled_only_with_a_positive_mtbf(self):
        from repro.chaos import EpisodeConfig

        assert not EpisodeConfig().enabled
        assert EpisodeConfig(machine_mtbf=1.0).enabled
        assert EpisodeConfig(blackout_mtbf=1.0).enabled


class TestEpisodeGeneration:
    def _config(self, seed=3):
        from repro.chaos import EpisodeConfig

        return EpisodeConfig(
            seed=seed,
            horizon=10.0,
            machine_mtbf=1.0,
            machine_mttr=0.2,
            blackout_mtbf=1.5,
            blackout_mttr=0.1,
        )

    def test_same_seed_same_timeline(self):
        from repro.chaos import generate_episodes

        assert generate_episodes(self._config()) == generate_episodes(
            self._config()
        )

    def test_different_seed_different_timeline(self):
        from repro.chaos import generate_episodes

        assert generate_episodes(self._config(1)) != generate_episodes(
            self._config(2)
        )

    def test_episodes_sorted_and_within_horizon(self):
        from repro.chaos import generate_episodes

        episodes = generate_episodes(self._config())
        starts = [ep.start for ep in episodes]
        assert starts == sorted(starts)
        assert all(0.0 <= ep.start < 10.0 for ep in episodes)

    def test_same_concern_episodes_never_overlap(self):
        from repro.chaos import generate_episodes

        episodes = generate_episodes(self._config())
        by_kind = {}
        for ep in episodes:
            by_kind.setdefault(ep.kind, []).append(ep)
        assert len(by_kind) == 2  # both concerns drew episodes
        for kind, eps in by_kind.items():
            for prev, cur in zip(eps, eps[1:]):
                assert prev.end <= cur.start, kind

    def test_disabled_config_generates_nothing(self):
        from repro.chaos import EpisodeConfig, generate_episodes

        assert generate_episodes(EpisodeConfig()) == []


class TestEpisodeDriver:
    def _run(self, episodes, machine=None):
        from repro.chaos import EpisodeDriver
        from repro.sim.engine import Engine

        machine = machine if machine is not None else Machine(OPTANE_HM)
        engine = Engine()
        machine.bind_engine(engine)
        driver = EpisodeDriver(machine, episodes)
        driver.arm(engine)
        return machine, engine, driver

    def test_machine_offline_flips_online_flag(self):
        from repro.chaos import Episode

        ep = Episode("machine-offline", start=1.0, duration=0.5)
        machine, engine, _ = self._run([ep])
        assert machine.online
        engine.run(until=1.25)
        assert not machine.online
        engine.run()
        assert machine.online

    def test_blackout_pushes_channel_next_free(self):
        from repro.chaos import Episode

        ep = Episode("channel-blackout", start=0.5, duration=2.0, target="promote")
        machine, engine, _ = self._run([ep])
        engine.run(until=0.75)
        channel = machine.promote_channel
        assert channel.next_free >= 2.5
        assert channel.blocked_time == 2.0

    def test_unknown_blackout_target_rejected_up_front(self):
        from repro.chaos import Episode, EpisodeDriver

        ep = Episode("channel-blackout", start=0.0, duration=1.0, target="warp")
        with pytest.raises(ValueError, match="unknown channel"):
            EpisodeDriver(Machine(OPTANE_HM), [ep])

    def test_begin_and_end_fire_as_fault_events(self):
        from repro.chaos import Episode
        from repro.sim.engine import EventKind

        ep = Episode("machine-offline", start=1.0, duration=0.5)
        machine, engine, _ = self._run([ep])
        phases = []
        engine.subscribe(
            EventKind.FAULT,
            lambda ev: phases.append((ev.payload["phase"], ev.time)),
        )
        engine.run()
        assert phases == [("begin", 1.0), ("end", 1.5)]


class TestBlackoutInFlightTransfer:
    """Regression: a channel blackout must suspend in-flight transfers.

    An earlier bug let an already-scheduled TRANSFER_DONE event fire on the
    original schedule and commit the migration mid-outage, so the run read
    from destination frames while the channel was dark.  ``block()`` now
    re-schedules the pending event to the delayed finish and the episode
    driver re-stamps cached availability times.
    """

    def _in_flight_blackout(self, tracer=None):
        from repro.chaos import Episode, EpisodeDriver
        from repro.sim.engine import Engine

        machine = Machine(OPTANE_HM, tracer=tracer)
        engine = Engine()
        machine.bind_engine(engine)
        run = machine.map_run(4, DeviceKind.SLOW)
        transfer, scheduled, skipped = machine.migration.promote([run], now=0.0)
        assert scheduled == [run] and not skipped
        original_finish = transfer.finish
        outage = Episode(
            "channel-blackout",
            start=original_finish / 2.0,
            duration=2.0 * original_finish,
            target="promote",
        )
        driver = EpisodeDriver(machine, [outage])
        driver.arm(engine)
        return machine, engine, run, transfer, original_finish, outage

    def test_transfer_done_does_not_commit_mid_outage(self):
        machine, engine, run, transfer, original_finish, outage = (
            self._in_flight_blackout()
        )
        # Run past the pre-blackout finish time but stay inside the outage:
        # the original TRANSFER_DONE instant passes without a commit.
        probe = original_finish * 1.5
        assert outage.start < original_finish < probe < outage.end
        engine.run(until=probe)
        assert run.in_flight
        assert run.effective_device(probe) is DeviceKind.SLOW
        assert transfer.finish > outage.end

    def test_transfer_commits_after_the_outage_lifts(self):
        machine, engine, run, transfer, _, outage = self._in_flight_blackout()
        engine.run()
        now = engine.now
        machine.migration.sync(now)
        assert not run.in_flight
        assert run.device is DeviceKind.FAST
        assert run.effective_device(now) is DeviceKind.FAST
        # The copy landed strictly after the outage, never during it.
        assert outage.end <= transfer.finish <= now

    def test_books_balance_and_trace_stays_well_formed(self):
        from repro.obs import EventTracer, to_chrome, validate_chrome

        tracer = EventTracer()
        machine, engine, run, transfer, _, _ = self._in_flight_blackout(
            tracer=tracer
        )
        engine.run()
        machine.migration.sync(engine.now)
        InvariantAuditor(machine).audit()  # raises ConsistencyError on drift
        assert validate_chrome(to_chrome(tracer.events)) > 0
