"""Tensor-level insight: collector invariants, artifact, join, HTML."""

import json

import pytest

from repro.harness.report import format_insight
from repro.harness.runner import run_policy
from repro.obs import (
    INSIGHT_SCHEMA,
    InsightCollector,
    InsightConfig,
    insight_json,
    join_stall_attribution,
    render_insight_html,
    validate_insight,
    write_insight,
    write_insight_html,
)


def collected_run(policy="sentinel", model="dcgan", config=None, **kwargs):
    collector = InsightCollector(config=config)
    metrics = run_policy(policy, model=model, insight=collector, **kwargs)
    return collector, metrics


@pytest.fixture(scope="module")
def dcgan_report():
    collector, _ = collected_run()
    return collector.report(meta={"model": "dcgan", "policy": "sentinel"})


class TestInsightConfig:
    def test_defaults_valid(self):
        config = InsightConfig()
        assert config.hot_layers == 1
        assert config.warm_layers == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hot_layers": -1},
            {"hot_layers": 4, "warm_layers": 2},
            {"pingpong_window": 0.0},
            {"pingpong_window": -1.0},
            {"reservoir_size": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            InsightConfig(**kwargs)


class TestCollectorLifecycle:
    def test_report_before_finalize_raises(self):
        collector = InsightCollector()
        with pytest.raises(ValueError, match="finalize"):
            collector.report()
        with pytest.raises(ValueError, match="finalize"):
            collector.summary()

    def test_finalize_is_idempotent(self):
        collector, _ = collected_run()
        first = collector.report()
        collector.finalize(1e9)  # second call must be a no-op
        assert collector.report() == first

    def test_bind_rejects_second_machine(self):
        collector, _ = collected_run()
        with pytest.raises(ValueError, match="already bound"):
            collector.bind(object())

    def test_summary_keys_and_consistency(self):
        collector, _ = collected_run()
        summary = collector.summary()
        report = collector.report()
        assert set(summary) == {
            "insight.tensor_episodes",
            "insight.pingpong_events",
            "insight.pingpong_tensors",
            "insight.wasted_prefetch_bytes",
            "insight.migration_events",
        }
        assert summary["insight.tensor_episodes"] == len(report["tensors"])
        assert summary["insight.migration_events"] == len(report["migrations"])
        assert summary["insight.pingpong_events"] == sum(
            row["pingpong"] for row in report["tensors"]
        )

    def test_run_metrics_extras_carry_summary(self):
        collector = InsightCollector()
        metrics = run_policy("sentinel", model="dcgan", insight=collector)
        assert metrics.extras["insight.tensor_episodes"] > 0
        assert (
            metrics.extras["insight.migration_events"]
            == collector.summary()["insight.migration_events"]
        )


class TestArtifact:
    def test_validates_and_has_schema(self, dcgan_report):
        assert dcgan_report["schema"] == INSIGHT_SCHEMA
        assert validate_insight(dcgan_report) == len(dcgan_report["tensors"])
        assert dcgan_report["meta"] == {"model": "dcgan", "policy": "sentinel"}

    def test_residency_segments_tile_each_lifetime(self, dcgan_report):
        for row in dcgan_report["tensors"]:
            segments = row["residency"]
            end = row["free"] if row["free"] is not None else segments[-1][1]
            tiled = sum(t1 - t0 for t0, t1, _ in segments)
            assert tiled == pytest.approx(end - row["alloc"], abs=1e-12)

    def test_migration_totals_balance_tensor_attribution(self, dcgan_report):
        totals = dcgan_report["totals"]
        for kind in ("promote", "demote"):
            key = f"{kind}_bytes"
            if key not in totals:
                continue
            attributed = totals[f"{kind}_attributed"]
            unattributed = totals[f"{kind}_unattributed"]
            assert attributed + unattributed == pytest.approx(totals[key])
            assert attributed >= 0.0 and unattributed >= -1e-6

    def test_thrash_score_matches_definition(self, dcgan_report):
        for row in dcgan_report["tensors"]:
            expected = row["migrated_bytes"] / max(1, row["bytes_touched"])
            assert row["thrash"] == pytest.approx(expected)

    def test_canonical_json_is_byte_stable(self):
        a, _ = collected_run()
        b, _ = collected_run()
        meta = {"model": "dcgan", "policy": "sentinel"}
        assert insight_json(a.report(meta=meta)) == insight_json(b.report(meta=meta))

    def test_write_insight_round_trips(self, dcgan_report, tmp_path):
        path = tmp_path / "insight.json"
        write_insight(dcgan_report, str(path))
        loaded = json.loads(path.read_text())
        assert validate_insight(loaded) == len(dcgan_report["tensors"])
        assert insight_json(loaded) == insight_json(
            json.loads(insight_json(dcgan_report))
        )

    def test_validate_rejects_bad_artifacts(self, dcgan_report):
        with pytest.raises(ValueError, match="JSON object"):
            validate_insight([])
        with pytest.raises(ValueError, match="schema"):
            validate_insight({"schema": "bogus"})
        broken = json.loads(insight_json(dcgan_report))
        del broken["occupancy"]
        with pytest.raises(ValueError, match="occupancy"):
            validate_insight(broken)
        gapped = json.loads(insight_json(dcgan_report))
        victim = next(
            row for row in gapped["tensors"] if len(row["residency"]) > 1
        )
        victim["residency"][1][0] += 1.0
        with pytest.raises(ValueError, match="gap"):
            validate_insight(gapped)


class TestPingPong:
    def test_window_bounds_detection(self):
        # Unbounded window flags at least as many events as a tiny one.
        wide, _ = collected_run(config=InsightConfig(pingpong_window=None))
        narrow, _ = collected_run(config=InsightConfig(pingpong_window=1e-9))
        wide_count = wide.summary()["insight.pingpong_events"]
        narrow_count = narrow.summary()["insight.pingpong_events"]
        assert narrow_count <= wide_count
        assert narrow_count == 0  # nothing round-trips within a nanosecond

    def test_flagged_entries_are_promote_demote_promote(self):
        collector, _ = collected_run()
        report = collector.report()
        for row in report["tensors"]:
            flagged = [e for e in row["lineage"] if e.get("pingpong")]
            if row["pingpong"]:
                kinds = {e["kind"] for e in flagged}
                assert kinds <= {"promote", "demote"}
                assert len(flagged) >= 3


class TestStallJoin:
    def test_join_distributes_proportionally(self):
        class Step:
            def __init__(self, step, start, end, migration_stall):
                self.step = step
                self.start = start
                self.end = end
                self.migration_stall = migration_stall

        class Attribution:
            steps = (Step(0, 0.0, 10.0, 3.0), Step(1, 10.0, 20.0, 5.0))

        report = {
            "tensors": [
                {
                    "lineage": [{"t": 1.0, "bytes": 100.0}],
                    "stall": 0.0,
                },
                {
                    "lineage": [{"t": 2.0, "bytes": 300.0}],
                    "stall": 0.0,
                },
            ],
            "totals": {},
        }
        join_stall_attribution(report, Attribution())
        # Step 0's 3.0s split 1:3; step 1's 5.0s has no in-step migrations.
        assert report["tensors"][0]["stall"] == pytest.approx(0.75)
        assert report["tensors"][1]["stall"] == pytest.approx(2.25)
        assert report["totals"]["stall_unattributed"] == pytest.approx(5.0)

    def test_join_on_real_run_conserves_stall(self):
        from repro.obs import EventTracer, attribute

        tracer = EventTracer(capacity=1 << 16)
        collector = InsightCollector()
        run_policy("sentinel", model="dcgan", tracer=tracer, insight=collector)
        report = collector.report()
        attribution = attribute(tracer.events, dropped=tracer.dropped)
        join_stall_attribution(report, attribution)
        total_stall = sum(s.migration_stall for s in attribution.steps)
        attributed = sum(row["stall"] for row in report["tensors"])
        assert attributed + report["totals"]["stall_unattributed"] == (
            pytest.approx(total_stall, abs=1e-9)
        )


class TestTextAndHtml:
    def test_format_insight_renders_headline(self, dcgan_report):
        text = format_insight(dcgan_report, top=5)
        assert "tensor episodes" in text
        assert "top 5 tensors by migrated bytes" in text
        assert "ping-pong events" in text

    def test_html_is_self_contained(self, dcgan_report):
        html = render_insight_html(dcgan_report)
        assert html.lower().startswith("<!doctype html>")
        lowered = html.lower()
        for marker in ("http://", "https://", "<link", "src="):
            assert marker not in lowered
        assert "<svg" in html and "<style>" in html

    def test_html_embeds_the_canonical_artifact(self, dcgan_report):
        html = render_insight_html(dcgan_report)
        start = html.index('id="insight-data">') + len('id="insight-data">')
        end = html.index("</script>", start)
        embedded = json.loads(html[start:end])
        assert validate_insight(embedded) == len(dcgan_report["tensors"])

    def test_html_is_deterministic(self, dcgan_report):
        assert render_insight_html(dcgan_report) == render_insight_html(
            dcgan_report
        )

    def test_write_insight_html(self, dcgan_report, tmp_path):
        path = tmp_path / "report.html"
        write_insight_html(dcgan_report, str(path), top=3)
        content = path.read_text()
        assert INSIGHT_SCHEMA in content
