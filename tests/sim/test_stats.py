"""Counters and the registry behind ``Machine.stats``."""

import pytest

from repro.obs.metrics import Counter, MetricsRegistry


class TestCounter:
    def test_accumulates(self):
        counter = Counter("x")
        counter.add(2.0)
        counter.add(3.0)
        assert counter.value == 5.0

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


class TestStatsRegistry:
    def test_counter_is_memoized(self):
        stats = MetricsRegistry()
        assert stats.counter("a") is stats.counter("a")

    def test_counters_snapshot(self):
        stats = MetricsRegistry()
        stats.counter("a").add(1.0)
        stats.counter("b").add(2.0)
        assert stats.counters() == {"a": 1.0, "b": 2.0}
