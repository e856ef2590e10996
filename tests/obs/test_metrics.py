"""MetricsRegistry: typed metrics, kind safety, and canonical exposition."""

import json
import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    Timeline,
)


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


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.add(-4.0)
        assert gauge.value == 6.0


class TestHistogram:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Histogram("h", lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram("h", lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram("h", bins=0)

    def test_rejects_negative_observation(self):
        with pytest.raises(ValueError):
            Histogram("h").observe(-1.0)

    def test_edges_are_log_spaced_and_pinned(self):
        hist = Histogram("h", lo=1.0, hi=1000.0, bins=3)
        assert hist.edges == pytest.approx([10.0, 100.0, 1000.0])
        assert hist.edges[-1] == 1000.0  # exactly, not within drift

    def test_observations_land_in_fixed_buckets(self):
        hist = Histogram("h", lo=1.0, hi=1000.0, bins=3)
        for value in (0.5, 11.0, 99.0, 999.0, 5000.0):
            hist.observe(value)
        # ~10 | ~100 | 1000 (pinned) | overflow
        assert hist.counts == [1, 2, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(6109.5)
        assert hist.min == 0.5 and hist.max == 5000.0

    def test_same_parameters_bin_identically(self):
        a = Histogram("a", lo=1e-3, hi=1e3, bins=12)
        b = Histogram("b", lo=1e-3, hi=1e3, bins=12)
        for value in (0.002, 0.5, 7.0, 999.0):
            a.observe(value)
            b.observe(value)
        assert a.counts == b.counts

    def test_nonzero_buckets_marks_overflow_inf(self):
        hist = Histogram("h", lo=1.0, hi=10.0, bins=1)
        hist.observe(5.0)
        hist.observe(50.0)
        assert hist.nonzero_buckets() == [(10.0, 1), (math.inf, 1)]

    def test_quantile(self):
        hist = Histogram("h", lo=1.0, hi=1000.0, bins=3)
        for value in (5.0, 5.0, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.quantile(0.5) == pytest.approx(10.0)
        assert hist.quantile(1.0) == 1000.0
        assert hist.quantile(0.0) == pytest.approx(10.0)
        assert Histogram("e").quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_overflow_returns_observed_max(self):
        hist = Histogram("h", lo=1.0, hi=10.0, bins=1)
        hist.observe(123.0)
        assert hist.quantile(1.0) == 123.0


class TestTimeSeries:
    def test_sliding_window_drops_oldest(self):
        series = TimeSeries("s", max_samples=2)
        series.sample(1.0, ts=0.0)
        series.sample(2.0, ts=1.0)
        series.sample(3.0, ts=2.0)
        assert series.samples == [(1.0, 2.0), (2.0, 3.0)]
        assert series.dropped == 1
        assert series.last() == (2.0, 3.0)

    def test_uses_registry_clock_when_no_ts(self):
        class FakeClock:
            now = 7.5

        registry = MetricsRegistry()
        registry.bind_clock(FakeClock())
        series = registry.series("s")
        series.sample(1.0)
        assert series.samples == [(7.5, 1.0)]


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.series("s") is registry.series("s")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_parameter_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", lo=1.0, hi=10.0, bins=4)
        with pytest.raises(ValueError, match="already exists"):
            registry.histogram("h", lo=1.0, hi=100.0, bins=4)

    def test_timeline_width_conflict_raises(self):
        registry = MetricsRegistry()
        registry.timeline("t", bin_width=0.5)
        with pytest.raises(ValueError, match="already exists"):
            registry.timeline("t", bin_width=0.25)

    def test_counters_prefix_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("migration.promotions").add(3)
        registry.counter("pressure.spills").add(1)
        registry.gauge("migration.backlog").set(9)
        assert registry.counters("migration.") == {"migration.promotions": 3.0}

    def test_reset_clears_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").add(1)
        registry.histogram("h").observe(1.0)
        registry.series("s").sample(1.0, ts=0.0)
        registry.reset()
        assert registry.counter("c").value == 0.0
        assert registry.histogram("h").count == 0
        assert registry.series("s").samples == []


class TestExposition:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("migration.promotions").add(3)
        registry.gauge("pressure.above_low").set(1)
        hist = registry.histogram("executor.step_time", lo=1e-3, hi=1e3, bins=6)
        hist.observe(0.5)
        hist.observe(2.0)
        registry.timeline("bw", bin_width=1.0).record(0.5, 100.0)
        registry.series("occ").sample(0.25, ts=1.0)
        return registry

    def test_json_is_canonical_and_insertion_order_free(self):
        a = MetricsRegistry()
        a.counter("x").add(1)
        a.gauge("y").set(2)
        b = MetricsRegistry()
        b.gauge("y").set(2)
        b.counter("x").add(1)
        assert a.to_json() == b.to_json()
        # round-trips as strict JSON
        payload = json.loads(self.build().to_json())
        assert payload["counters"]["migration.promotions"] == 3.0
        assert payload["histograms"]["executor.step_time"]["count"] == 2

    def test_snapshot_shapes(self):
        snap = self.build().snapshot()
        assert set(snap) == {"counters", "gauges", "histograms", "timelines", "series"}
        hist = snap["histograms"]["executor.step_time"]
        assert hist["min"] == 0.5 and hist["max"] == 2.0
        assert sum(count for _, count in hist["buckets"]) == 2
        assert snap["series"]["occ"]["samples"] == [[1.0, 0.25]]

    def test_prometheus_text_format(self):
        text = self.build().to_prometheus()
        assert "# TYPE repro_migration_promotions counter" in text
        assert "repro_migration_promotions 3" in text
        assert "# TYPE repro_executor_step_time histogram" in text
        assert 'repro_executor_step_time_bucket{le="+Inf"} 2' in text
        assert "repro_executor_step_time_count 2" in text
        assert "repro_bw_total 100" in text
        assert "repro_occ 0.25" in text
        assert text.endswith("\n")

    def test_prometheus_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", lo=1.0, hi=100.0, bins=2)
        for value in (5.0, 50.0, 500.0):
            hist.observe(value)
        text = registry.to_prometheus(namespace="")
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_bucket{")
        ]
        assert counts == [1, 2, 3]  # cumulative, ending at total count
        assert 'h_bucket{le="+Inf"} 3' in text

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

    def test_timeline_help_names_the_total_family(self):
        registry = MetricsRegistry()
        registry.timeline("bw", bin_width=1.0).record(0.5, 100.0)
        text = registry.to_prometheus()
        assert "# HELP repro_bw_total bw" in text
        assert "# TYPE repro_bw_total counter" in text

    def test_empty_registry_expositions(self):
        registry = MetricsRegistry()
        assert registry.to_prometheus() == ""
        assert json.loads(registry.to_json()) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "timelines": {},
            "series": {},
        }


class TestLabelEscaping:
    def test_backslash_escaped(self):
        from repro.obs.metrics import escape_label_value

        assert escape_label_value("a\\b") == "a\\\\b"

    def test_double_quote_escaped(self):
        from repro.obs.metrics import escape_label_value

        assert escape_label_value('say "hi"') == 'say \\"hi\\"'

    def test_newline_escaped(self):
        from repro.obs.metrics import escape_label_value

        assert escape_label_value("a\nb") == "a\\nb"

    def test_backslash_escaped_before_quote_and_newline(self):
        # Escaping order matters: a pre-escaped sequence must not be
        # double-unescapable (\" must become \\\" not \\" -> ambiguous).
        from repro.obs.metrics import escape_label_value

        assert escape_label_value('\\"\n') == '\\\\\\"\\n'

    def test_plain_values_untouched(self):
        from repro.obs.metrics import escape_label_value

        assert escape_label_value("promote-0.5") == "promote-0.5"

    def test_histogram_le_labels_pass_through_escaper(self):
        registry = MetricsRegistry()
        registry.histogram("h", lo=1.0, hi=10.0, bins=1).observe(5.0)
        text = registry.to_prometheus(namespace="")
        for line in text.splitlines():
            if line.startswith("h_bucket{"):
                value = line.split('le="', 1)[1].split('"', 1)[0]
                assert "\\" not in value  # plain floats need no escaping
                float(value.replace("+Inf", "inf"))

