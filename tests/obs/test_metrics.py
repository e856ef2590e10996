"""MetricsRegistry: the machine's counters and their canonical exposition."""

import json

import pytest

from repro.obs.metrics import Counter, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        counter = Counter("c")
        counter.add(2)
        counter.add(0)
        assert counter.value == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").add(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.add(5)
        counter.reset()
        assert counter.value == 0.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_counters_prefix_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("migration.promotions").add(3)
        registry.counter("pressure.spills").add(1)
        assert registry.counters("migration.") == {"migration.promotions": 3.0}

    def test_reset_clears_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").add(1)
        registry.counter("d").add(2)
        registry.reset()
        assert registry.counters() == {"c": 0.0, "d": 0.0}


class TestExposition:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("migration.promotions").add(3)
        registry.counter("migration.promoted_bytes").add(0.5)
        return registry

    def test_json_is_canonical_and_insertion_order_free(self):
        a = MetricsRegistry()
        a.counter("x").add(1)
        a.counter("y").add(2)
        b = MetricsRegistry()
        b.counter("y").add(2)
        b.counter("x").add(1)
        assert a.to_json() == b.to_json()
        # round-trips as strict JSON
        payload = json.loads(self.build().to_json())
        assert payload["counters"]["migration.promotions"] == 3.0

    def test_snapshot_shapes(self):
        snap = self.build().snapshot()
        assert snap == {
            "counters": {
                "migration.promoted_bytes": 0.5,
                "migration.promotions": 3.0,
            }
        }
        assert list(snap["counters"]) == sorted(snap["counters"])

    def test_prometheus_text_format(self):
        text = self.build().to_prometheus()
        assert "# TYPE repro_migration_promotions counter" in text
        assert "repro_migration_promotions 3" in text
        assert "repro_migration_promoted_bytes 0.5" in text
        assert text.endswith("\n")

    def test_prometheus_help_lines(self):
        registry = self.build()
        text = registry.to_prometheus()
        # Every TYPE line is preceded by a HELP line for the same family.
        lines = text.splitlines()
        for index, line in enumerate(lines):
            if line.startswith("# TYPE "):
                family = line.split(" ")[2]
                assert lines[index - 1].startswith(f"# HELP {family} ")
        # Undescribed metrics fall back to their dotted name as help text.
        assert "# HELP repro_migration_promotions migration.promotions" in text

    def test_describe_overrides_help_text(self):
        registry = MetricsRegistry()
        registry.counter("migration.promotions").add(1)
        registry.describe("migration.promotions", "Pages promoted to fast")
        text = registry.to_prometheus()
        assert (
            "# HELP repro_migration_promotions Pages promoted to fast" in text
        )

    def test_help_text_escapes_backslash(self):
        registry = MetricsRegistry()
        registry.counter("c").add(1)
        registry.describe("c", "path C:\\fast")
        assert "# HELP repro_c path C:\\\\fast" in registry.to_prometheus()

    def test_help_text_escapes_newline(self):
        registry = MetricsRegistry()
        registry.counter("c").add(1)
        registry.describe("c", "line one\nline two")
        text = registry.to_prometheus()
        assert "# HELP repro_c line one\\nline two" in text
        # The exposition stays one-line-per-record: no physical line is a
        # bare continuation of a help string.
        assert all(
            line.startswith(("#", "repro_")) for line in text.splitlines()
        )

    def test_empty_registry_expositions(self):
        registry = MetricsRegistry()
        assert registry.to_prometheus() == ""
        assert json.loads(registry.to_json()) == {"counters": {}}
