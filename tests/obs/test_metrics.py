"""MetricsRegistry: the machine's counters."""

import pytest

from repro.obs.metrics import Counter, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        counter = Counter("c")
        counter.add(2)
        counter.add(3)
        counter.add(0)
        assert counter.value == 5.0

    def test_rejects_negative(self):
        counter = Counter("c")
        counter.add(3)
        with pytest.raises(ValueError, match="monotonic"):
            counter.add(-1)
        assert counter.value == 3.0  # the refused add left no trace


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_counters_prefix_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("migration.promotions").add(3)
        registry.counter("pressure.spills").add(1)
        assert registry.counters("migration.") == {"migration.promotions": 3.0}
        assert registry.counters() == {
            "migration.promotions": 3.0,
            "pressure.spills": 1.0,
        }
