"""Counters, timelines, and the registry behind ``Machine.stats``."""

import pytest
from hypothesis import given, strategies as st

from repro.obs.metrics import Counter, MetricsRegistry, Timeline


class TestCounter:
    def test_accumulates(self):
        counter = Counter("x")
        counter.add(2.0)
        counter.add(3.0)
        assert counter.value == 5.0

    def test_reset(self):
        counter = Counter("x")
        counter.add(1.0)
        counter.reset()
        assert counter.value == 0.0

    def test_negative_amount_rejected(self):
        counter = Counter("x")
        counter.add(3.0)
        with pytest.raises(ValueError, match="monotonic"):
            counter.add(-1.0)
        assert counter.value == 3.0  # the failed add left no trace

    def test_zero_amount_allowed(self):
        counter = Counter("x")
        counter.add(0.0)
        assert counter.value == 0.0


class TestTimeline:
    def test_rejects_nonpositive_bin(self):
        with pytest.raises(ValueError):
            Timeline(0.0)

    def test_record_bins_by_time(self):
        timeline = Timeline(1.0)
        timeline.record(0.5, 10.0)
        timeline.record(0.9, 5.0)
        timeline.record(1.1, 7.0)
        series = dict(timeline.series())
        assert series[0.0] == pytest.approx(15.0)
        assert series[1.0] == pytest.approx(7.0)

    def test_record_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Timeline(1.0).record(-0.1, 1.0)

    def test_record_span_spreads_uniformly(self):
        timeline = Timeline(1.0)
        timeline.record_span(0.5, 2.5, 20.0)
        series = dict(timeline.series())
        # 0.5s in bin 0, 1.0s in bin 1, 0.5s in bin 2 at rate 10/s.
        assert series[0.0] == pytest.approx(5.0)
        assert series[1.0] == pytest.approx(10.0)
        assert series[2.0] == pytest.approx(5.0)

    def test_record_span_zero_length_falls_back_to_point(self):
        timeline = Timeline(1.0)
        timeline.record_span(1.0, 1.0, 4.0)
        assert timeline.total() == pytest.approx(4.0)

    def test_record_span_backwards_rejected(self):
        with pytest.raises(ValueError):
            Timeline(1.0).record_span(2.0, 1.0, 4.0)

    @given(
        spans=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                st.floats(min_value=0, max_value=10, allow_nan=False),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            max_size=20,
        )
    )
    def test_span_conserves_amount(self, spans):
        timeline = Timeline(0.7)
        total = 0.0
        for start, length, amount in spans:
            timeline.record_span(start, start + length, amount)
            total += amount
        assert timeline.total() == pytest.approx(total, rel=1e-6, abs=1e-6)


class TestStatsRegistry:
    def test_counter_is_memoized(self):
        stats = MetricsRegistry()
        assert stats.counter("a") is stats.counter("a")

    def test_timeline_bin_width_conflict_rejected(self):
        stats = MetricsRegistry()
        stats.timeline("t", bin_width=0.5)
        with pytest.raises(ValueError):
            stats.timeline("t", bin_width=0.25)

    def test_counters_snapshot(self):
        stats = MetricsRegistry()
        stats.counter("a").add(1.0)
        stats.counter("b").add(2.0)
        assert stats.counters() == {"a": 1.0, "b": 2.0}

    def test_reset_clears_everything(self):
        stats = MetricsRegistry()
        stats.counter("a").add(1.0)
        stats.timeline("t").record(0.0, 5.0)
        stats.reset()
        assert stats.counter("a").value == 0.0
        assert stats.timeline("t").total() == 0.0

