"""BandwidthChannel: FIFO service, timing arithmetic, invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.channel import BandwidthChannel


class TestConstruction:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            BandwidthChannel(0.0)
        with pytest.raises(ValueError):
            BandwidthChannel(-1.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            BandwidthChannel(1e9, latency=-1e-6)


class TestSubmit:
    def test_idle_channel_starts_immediately(self):
        channel = BandwidthChannel(1000.0)
        transfer = channel.submit(500, now=2.0)
        assert transfer.start == 2.0
        assert transfer.finish == pytest.approx(2.5)

    def test_latency_added_once_per_transfer(self):
        channel = BandwidthChannel(1000.0, latency=0.1)
        transfer = channel.submit(500, now=0.0)
        assert transfer.finish == pytest.approx(0.6)

    def test_fifo_queueing(self):
        channel = BandwidthChannel(1000.0)
        first = channel.submit(1000, now=0.0)
        second = channel.submit(1000, now=0.0)
        assert first.finish == pytest.approx(1.0)
        assert second.start == pytest.approx(1.0)
        assert second.finish == pytest.approx(2.0)
        assert second.queueing_delay == pytest.approx(1.0)

    def test_gap_leaves_channel_idle(self):
        channel = BandwidthChannel(1000.0)
        channel.submit(1000, now=0.0)
        late = channel.submit(1000, now=5.0)
        assert late.start == 5.0

    def test_zero_bytes_completes_after_latency(self):
        channel = BandwidthChannel(1000.0, latency=0.25)
        transfer = channel.submit(0, now=1.0)
        assert transfer.finish == pytest.approx(1.25)

    def test_negative_bytes_rejected(self):
        channel = BandwidthChannel(1000.0)
        with pytest.raises(ValueError):
            channel.submit(-1, now=0.0)

    def test_done_by(self):
        channel = BandwidthChannel(1000.0)
        transfer = channel.submit(1000, now=0.0)
        assert not transfer.done_by(0.5)
        assert transfer.done_by(1.0)

    def test_accounting(self):
        channel = BandwidthChannel(1000.0)
        channel.submit(300, now=0.0)
        channel.submit(700, now=0.0)
        assert channel.bytes_moved == 1000
        assert channel.busy_time == pytest.approx(1.0)
        assert len(channel.history) == 2

    def test_backlog_and_idle(self):
        channel = BandwidthChannel(1000.0)
        assert channel.idle_from(0.0)
        channel.submit(2000, now=0.0)
        assert channel.backlog_at(0.5) == pytest.approx(1.5)
        assert not channel.idle_from(1.0)
        assert channel.idle_from(2.0)


class TestLandedTransfers:
    """An engine-bound channel keeps only the transfers not yet landed; the
    totals it folds landed ones into answer as a full record would."""

    def test_engine_driven_history_holds_only_transfers_in_flight(self):
        from repro.sim.engine import Engine

        engine = Engine()
        channel = BandwidthChannel(1000.0, latency=1e-3)
        channel.bind_engine(engine)
        record, matches, lengths = [], [], []

        def submitter():
            for index in range(60):
                record.append(channel.submit(150 + 50 * (index % 4), engine.now))
                in_flight = [t for t in record if t.finish > engine.now]
                matches.append(channel.history == in_flight)
                lengths.append(len(channel.history))
                yield 0.2

        engine.process(submitter())
        engine.run()
        assert all(matches)
        assert 1 < max(lengths) < 20
        # The totals folded from the landed transfers answer as the record.
        total = 0.0
        for transfer in record:
            total += transfer.queueing_delay
        assert channel.mean_queueing_delay == total / len(record)
        assert channel.bytes_moved == sum(t.nbytes for t in record)

    def test_pending_event_list_is_pruned_under_load(self):
        from repro.sim.engine import Engine

        engine = Engine()
        channel = BandwidthChannel(1e9)
        channel.bind_engine(engine)
        for index in range(200):
            channel.submit(8, now=engine.now)
            engine.run()  # drain completions so fired events are prunable
        assert len(channel._pending_events) <= 65

    def test_submission_stamped_ahead_keeps_what_a_block_must_shift(self):
        from repro.sim.engine import Engine

        engine = Engine()
        channel = BandwidthChannel(1000.0)
        channel.bind_engine(engine)
        first = channel.submit(1000, now=0.0)
        # Stamped past ``first``'s finish while the engine is still at 0:
        # ``first`` has not landed yet, so the blackout below must find it.
        ahead = channel.submit(1000, now=5.0)
        assert channel.history == [first, ahead]
        engine.schedule_at(0.5, callback=lambda event: channel.block(event.time, 2.0))
        engine.run()
        assert first.finish == 3.0
        assert (ahead.start, ahead.finish) == (7.0, 8.0)
        assert channel.mean_queueing_delay == 1.0

    def test_mean_queueing_delay_across_blackouts_matches_a_full_record(self):
        from repro.sim.engine import Engine

        engine = Engine()
        channel = BandwidthChannel(1e3, latency=1e-3)
        channel.bind_engine(engine)
        record, at_submission = [], []

        def submitter():
            for index in range(40):
                ahead = 0.05 if index % 3 == 0 else 0.0
                transfer = channel.submit(170 + 37 * (index % 5), engine.now + ahead)
                record.append(transfer)
                at_submission.append(transfer.start - transfer.submitted)
                yield 0.21

        for when, duration in ((1.3, 0.4), (3.7, 0.25), (6.1, 0.55)):
            engine.schedule_at(
                when, callback=lambda event, d=duration: channel.block(event.time, d)
            )
        engine.process(submitter())
        engine.run()
        delays = [t.start - t.submitted for t in record]
        assert delays != at_submission  # the blackouts delayed queued starts
        assert len(channel.history) < len(record)
        # Added left to right in submission order, as the channel adds them
        # (``sum`` compensates on Python 3.12+).
        total = 0.0
        for delay in delays:
            total += delay
        assert channel.mean_queueing_delay == total / len(record)


class TestChannelProperties:
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**9),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_fifo_ordering_invariants(self, requests):
        """Transfers never overlap, never start before submission, and the
        channel conserves bytes."""
        # Submissions must be in non-decreasing time order (callers only
        # submit at the current clock).
        requests = sorted(requests, key=lambda r: r[1])
        channel = BandwidthChannel(1e6, latency=1e-6)
        transfers = [channel.submit(nbytes, now) for nbytes, now in requests]
        for transfer, (nbytes, now) in zip(transfers, requests):
            assert transfer.start >= now
            assert transfer.finish >= transfer.start
        for earlier, later in zip(transfers, transfers[1:]):
            assert later.start >= earlier.finish
        assert channel.bytes_moved == sum(n for n, _ in requests)

    @given(
        nbytes=st.integers(min_value=1, max_value=10**9),
        bandwidth=st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
    )
    def test_service_time_is_linear(self, nbytes, bandwidth):
        channel = BandwidthChannel(bandwidth)
        assert channel.service_time(nbytes) == pytest.approx(nbytes / bandwidth)
