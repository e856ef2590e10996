"""Migration engine: async promotion/demotion, capacity accounting,
splitting, discard/materialize."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.devices import DeviceKind, DeviceSpec, MemoryDevice
from repro.mem.migration import MigrationEngine
from repro.mem.page import PageTable
from repro.sim.channel import BandwidthChannel

PAGE = 4096


def make_engine(fast_pages=16, slow_pages=1024, promote_bw=1e6, demote_bw=5e5):
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
        BandwidthChannel(promote_bw, "promote"),
        BandwidthChannel(demote_bw, "demote"),
    )
    return table, fast, slow, engine


def map_on(table, device, npages, fast, slow):
    run = table.map_run(npages, device)
    (fast if device is DeviceKind.FAST else slow).allocate(npages * PAGE)
    return run


class TestPromote:
    def test_promote_reserves_fast_at_submit(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        transfer, scheduled, skipped = engine.promote([run], now=0.0)
        assert scheduled == [run]
        assert skipped == []
        assert fast.used == 4 * PAGE
        assert slow.used == 0
        assert run.in_flight
        assert run.device is DeviceKind.SLOW  # not committed yet

    def test_sync_commits_after_finish(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        transfer, _, _ = engine.promote([run], now=0.0)
        engine.sync(transfer.finish)
        assert run.device is DeviceKind.FAST
        assert not run.in_flight

    def test_promote_skips_fast_resident(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.FAST, 2, fast, slow)
        transfer, scheduled, skipped = engine.promote([run], now=0.0)
        assert transfer is None
        assert scheduled == [] and skipped == []

    def test_promote_skips_pinned(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.SLOW, 2, fast, slow)
        run.pinned = True
        transfer, scheduled, skipped = engine.promote([run], now=0.0)
        assert transfer is None
        assert skipped == [run]

    def test_promote_splits_at_capacity_boundary(self):
        table, fast, slow, engine = make_engine(fast_pages=4)
        run = map_on(table, DeviceKind.SLOW, 10, fast, slow)
        transfer, scheduled, skipped = engine.promote([run], now=0.0)
        assert len(scheduled) == 1
        assert scheduled[0].npages == 4
        assert len(skipped) == 1
        assert skipped[0].npages == 6
        assert fast.used == 4 * PAGE

    def test_boundary_split_mid_list_fills_fast_exactly(self):
        """The run straddling the limit splits; later runs are skipped whole."""
        table, fast, slow, engine = make_engine(fast_pages=6)
        first = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        straddler = map_on(table, DeviceKind.SLOW, 5, fast, slow)
        late = map_on(table, DeviceKind.SLOW, 3, fast, slow)
        transfer, scheduled, skipped = engine.promote(
            [first, straddler, late], now=0.0
        )
        assert [r.npages for r in scheduled] == [4, 2]
        assert fast.used == 6 * PAGE  # filled to the last page
        assert sum(r.npages for r in skipped) == 3 + 3  # tail + late run
        assert late in skipped

    def test_split_tail_keeps_slow_accounting(self):
        table, fast, slow, engine = make_engine(fast_pages=4)
        run = map_on(table, DeviceKind.SLOW, 10, fast, slow)
        engine.promote([run], now=0.0)
        # 4 pages reserved on fast (in flight), 6-page tail still on slow.
        assert fast.used == 4 * PAGE
        assert slow.used == 6 * PAGE
        assert sum(e.npages for e in table.entries()) == 10

    def test_promote_duplicate_request_deduped(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.SLOW, 2, fast, slow)
        transfer, scheduled, _ = engine.promote([run, run], now=0.0)
        assert scheduled == [run]

    def test_urgent_uses_demand_channel(self):
        table = PageTable(page_size=PAGE)
        fast = MemoryDevice(DeviceSpec("f", 64 * PAGE, 1e9, 1e9), DeviceKind.FAST)
        slow = MemoryDevice(DeviceSpec("s", 64 * PAGE, 1e8, 1e8), DeviceKind.SLOW)
        demand = BandwidthChannel(1e6, "demand")
        engine = MigrationEngine(
            table,
            fast,
            slow,
            BandwidthChannel(1e6, "promote"),
            BandwidthChannel(1e6, "demote"),
            demand_channel=demand,
        )
        backlog = map_on(table, DeviceKind.SLOW, 8, fast, slow)
        engine.promote([backlog], now=0.0)  # clogs the prefetch channel
        urgent = map_on(table, DeviceKind.SLOW, 1, fast, slow)
        transfer, _, _ = engine.promote([urgent], now=0.0, urgent=True)
        assert transfer.start == 0.0  # did not queue behind the backlog


class TestDemote:
    def test_fast_freed_only_at_commit(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.FAST, 4, fast, slow)
        transfer, scheduled = engine.demote([run], now=0.0)
        assert scheduled == [run]
        assert fast.used == 4 * PAGE  # still held during the copy
        assert slow.used == 4 * PAGE  # destination reserved
        engine.sync(transfer.finish)
        assert fast.used == 0
        assert run.device is DeviceKind.SLOW

    def test_demote_skips_slow_and_inflight(self):
        table, fast, slow, engine = make_engine()
        slow_run = map_on(table, DeviceKind.SLOW, 2, fast, slow)
        transfer, scheduled = engine.demote([slow_run], now=0.0)
        assert transfer is None and scheduled == []


class TestRoundTrip:
    def test_promote_then_demote_conserves_capacity(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        t1, _, _ = engine.promote([run], now=0.0)
        engine.sync(t1.finish)
        t2, _ = engine.demote([run], now=t1.finish)
        engine.sync(t2.finish)
        assert fast.used == 0
        assert slow.used == 4 * PAGE
        assert run.device is DeviceKind.SLOW

    @settings(max_examples=25, deadline=None)
    @given(moves=st.lists(st.booleans(), min_size=1, max_size=20))
    def test_alternating_migrations_conserve_bytes(self, moves):
        """After draining, exactly one device holds the run."""
        table, fast, slow, engine = make_engine(fast_pages=64)
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        now = 0.0
        for promote in moves:
            engine.sync(now)
            if promote:
                transfer, _, _ = engine.promote([run], now)
            else:
                transfer, _ = engine.demote([run], now)
            if transfer is not None:
                now = transfer.finish
        engine.sync(now)
        total = fast.used + slow.used
        assert total == 4 * PAGE
        holder = fast if run.device is DeviceKind.FAST else slow
        assert holder.used == 4 * PAGE


class TestReleaseRun:
    def test_release_settles_inflight_promote(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        engine.promote([run], now=0.0)
        engine.release_run(run, now=0.0)
        assert fast.used == 0
        assert slow.used == 0

    def test_release_settles_inflight_demote(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.FAST, 4, fast, slow)
        engine.demote([run], now=0.0)
        engine.release_run(run, now=0.0)
        assert fast.used == 0
        assert slow.used == 0

    def test_release_resident_run(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.FAST, 2, fast, slow)
        engine.release_run(run, now=0.0)
        assert fast.used == 0


class TestDiscardMaterialize:
    def test_discard_frees_fast_instantly_without_channel_traffic(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.FAST, 4, fast, slow)
        engine.discard(run, now=0.0)
        assert fast.used == 0
        assert slow.used == 4 * PAGE
        assert run.device is DeviceKind.SLOW
        assert engine.demote_channel.bytes_moved == 0

    def test_materialize_restores_to_fast(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.FAST, 4, fast, slow)
        engine.discard(run, now=0.0)
        assert engine.materialize(run, now=0.0)
        assert run.device is DeviceKind.FAST
        assert fast.used == 4 * PAGE
        assert engine.promote_channel.bytes_moved == 0

    def test_materialize_fails_when_full(self):
        table, fast, slow, engine = make_engine(fast_pages=4)
        run = map_on(table, DeviceKind.SLOW, 2, fast, slow)
        fast.allocate(3 * PAGE)
        assert not engine.materialize(run, now=0.0)
        assert run.device is DeviceKind.SLOW

    def test_discard_inflight_rejected(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.FAST, 2, fast, slow)
        engine.demote([run], now=0.0)
        with pytest.raises(ValueError):
            engine.discard(run, now=0.0)


class TestConcurrentDirections:
    def test_promote_and_demote_proceed_in_parallel(self):
        """Two helper threads: opposite directions do not queue behind each
        other (paper §VI)."""
        table, fast, slow, engine = make_engine()
        up = map_on(table, DeviceKind.SLOW, 8, fast, slow)
        down = map_on(table, DeviceKind.FAST, 8, fast, slow)
        t_up, _, _ = engine.promote([up], now=0.0)
        t_down, _ = engine.demote([down], now=0.0)
        assert t_up.start == 0.0
        assert t_down.start == 0.0

    def test_inflight_run_skipped_by_opposite_direction(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        engine.promote([run], now=0.0)
        transfer, scheduled = engine.demote([run], now=0.0)
        assert transfer is None and scheduled == []

    def test_release_during_queued_transfer_settles_books(self):
        table, fast, slow, engine = make_engine(promote_bw=1e3)  # slow channel
        first = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        second = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        engine.promote([first], now=0.0)
        engine.promote([second], now=0.0)  # queued behind first
        engine.release_run(second, now=0.0)
        table.unmap(second.vpn)
        engine.sync(float("inf"))
        # Only the first run's pages remain charged anywhere.
        assert fast.used == 4 * PAGE
        assert slow.used == 0


class TestQueries:
    def test_in_flight_bytes_and_drain_time(self):
        table, fast, slow, engine = make_engine()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        transfer, _, _ = engine.promote([run], now=0.0)
        assert engine.in_flight_bytes(0.0) == 4 * PAGE
        # The bytes stay in flight until the transfer's finish drains them.
        assert engine.in_flight_bytes(transfer.finish / 2) == 4 * PAGE
        engine.sync(transfer.finish)
        assert engine.in_flight_bytes(transfer.finish) == 0

    def test_per_run_submission_helpers(self):
        table, fast, slow, engine = make_engine()
        runs = [map_on(table, DeviceKind.SLOW, 1, fast, slow) for _ in range(3)]
        transfers = engine.promote_each(runs, now=0.0)
        assert len(transfers) == 3
        # Each successive transfer finishes strictly later (FIFO pipeline).
        finishes = [t.finish for t in transfers]
        assert finishes == sorted(finishes)
        assert len(set(finishes)) == 3


def pending_demote_bytes(engine):
    """Fast bytes in flight to slow, summed over the pending records."""
    return PAGE * sum(
        run.npages
        for record in engine._pending
        if record.direction is DeviceKind.SLOW
        for run in record.runs
        if run.migrating_to is DeviceKind.SLOW
    )


#: One operation: kind, which live run, time step, blackout length.  The
#: time steps are a few exact values, so landings tie with sync times.
OPERATIONS = st.tuples(
    st.sampled_from(
        ["promote", "demote", "sync", "release", "block-promote", "block-demote"]
    ),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.002, 0.004096, 0.01, 0.05]),
    st.sampled_from([0.003, 0.02]),
)


class TestRunningTotals:
    @settings(max_examples=200, deadline=None)
    @given(
        layout=st.lists(
            st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=4
        ),
        operations=st.lists(OPERATIONS, min_size=1, max_size=30),
    )
    def test_running_totals_match_the_pending_records(self, layout, operations):
        """The demote page count and the earliest-finish bound stay exact
        across submissions, commits, force-commits and blackouts."""
        table, fast, slow, engine = make_engine()
        runs = [
            map_on(
                table,
                DeviceKind.FAST if on_fast else DeviceKind.SLOW,
                npages,
                fast,
                slow,
            )
            for npages, on_fast in layout
        ]
        now = 0.0
        for kind, index, step, outage in operations:
            now += step
            run = runs[index % len(runs)] if runs else None
            if kind == "promote" and run is not None:
                engine.promote([run], now)
            elif kind == "demote" and run is not None:
                engine.demote([run], now)
            elif kind == "release" and run is not None:
                engine.release_run(run, now)
                table.unmap(run.vpn)
                runs.remove(run)
            elif kind.startswith("block"):
                channel = (
                    engine.promote_channel
                    if kind == "block-promote"
                    else engine.demote_channel
                )
                channel.block(now, outage)
                engine.refresh_availability()
            assert engine.in_flight_demote_bytes() == pending_demote_bytes(engine)
            before = list(engine._pending)
            engine.sync(now)
            kept = [id(r) for r in before if r.transfer.finish > now]
            assert [id(r) for r in engine._pending] == kept
            for record in before:
                landed = record.transfer.finish <= now
                assert all(run.in_flight != landed for run in record.runs)
            assert engine.in_flight_demote_bytes() == pending_demote_bytes(engine)
        engine.sync(float("inf"))
        assert engine.in_flight_demote_bytes() == 0
        assert fast.used + slow.used == sum(run.npages for run in runs) * PAGE
